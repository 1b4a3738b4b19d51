"""Discrete-event primitives of the grid broker.

The broker simulates a stream of jobs contending for cluster nodes, so
its completion estimate is *queue wait + predicted execution time*, not
the bare :math:`\\hat T_{exec}` of a one-shot selection.  Two pieces make
that accounting exact and auditable:

- :class:`EventQueue` — a deterministic time-ordered queue of job
  arrivals, completions, and (when a grid fault schedule is installed)
  fault/repair/requeue occurrences.  At equal timestamps completions
  drain before anything else — nodes freed at instant ``t`` are
  available to whatever happens at ``t`` — faults land before repairs,
  repairs before requeues, and plain arrivals come last so an arriving
  job sees post-fault capacity; remaining ties break on insertion order.
- :class:`SitePool` / :class:`GridLedger` — per-site free-node tracking
  with an append-only history of *grants*.  A placement acquires
  *specific node indices* (always the lowest free ones, for
  determinism) over a closed time window, and the pool records what was
  decided: one ``(node ids, start, end, job id)`` record per
  acquisition.  The per-node :class:`NodeWindow` reservations the
  property tests and the chaos invariants check for overlap are a
  *derived view* of those grants (:attr:`SitePool.windows`), built when
  somebody looks — a run that nobody audits allocates none.  A pool can
  be quiesced by grid faults: a site outage marks the whole pool down,
  a node-pool shrink removes the highest-indexed nodes, and every such
  capacity loss is recorded as an :class:`OutageRecord` so the chaos
  invariants can check that no reservation window overlaps a declared
  outage.

Each structure is sized for what it holds:

- The event queue holds six-figure job streams, so it is an *indexed
  heap*: entries are keyed by the composite index ``(time, kind,
  insertion seq)``, so push and pop are ``O(log n)`` while reproducing
  exactly the total order a sorted list of those keys would drain in
  (the event tests hold the heap to such a model).  The queue also
  tracks its peak depth, which the broker reports as
  ``peak_event_queue_depth``.
- A pool holds the free nodes of *one site* — tens of indices, whatever
  the length of the stream — so it is one ascending list: acquiring the
  ``k`` lowest free indices is a slice off the front, releasing extends
  the list and re-sorts it (nearly sorted already, at C speed), and a
  membership question is a ``bisect``.  At 12–32 nodes that beats a heap
  plus a membership set plus lazy stale-entry skipping (about 6× on an
  acquire-6 / release-6 cycle of a 32-node pool, history included), and
  there is nothing to keep consistent.  Every capacity change
  (acquire, release, outage, shrink, repair, restore) bumps the owning
  ledger's :attr:`GridLedger.version`, which is what lets the broker's
  placement fast path skip re-evaluating a blocked queue head until
  capacity has actually moved.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "NodeWindow",
    "OutageRecord",
    "SitePool",
    "GridLedger",
]


class EventKind(enum.IntEnum):
    """Event ordering classes; lower values drain first at equal times."""

    COMPLETION = 0
    ABORT = 1
    FAULT = 2
    REPAIR = 3
    REQUEUE = 4
    ARRIVAL = 5


@dataclass(frozen=True, slots=True)
class Event:
    """One simulated occurrence; ``payload`` is owned by the broker.

    Slotted (REP301): one instance per arrival/completion/fault at
    trace scale, so the per-instance dict would be pure overhead.
    """

    time: float
    kind: EventKind
    payload: Any = None


class EventQueue:
    """Time-ordered event queue with deterministic tie-breaking.

    An indexed binary heap: each entry carries the composite index
    ``(time, kind, insertion seq)``, so the drain order is total and
    identical to sorted insertion while push/pop stay ``O(log n)``.
    ``peak_depth``/``total_pushed`` expose the queue-pressure stats the
    broker reports after every run.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self.peak_depth = 0
        self.total_pushed = 0

    @hot
    def push(self, event: Event) -> None:
        if event.time < 0:
            raise ConfigurationError("event times must be >= 0")
        heapq.heappush(
            self._heap,
            (event.time, int(event.kind), next(self._seq), event),
        )
        self.total_pushed += 1
        if len(self._heap) > self.peak_depth:
            self.peak_depth = len(self._heap)

    @hot
    def pop(self) -> Event:
        if not self._heap:
            raise ConfigurationError("event queue is empty")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass(frozen=True, slots=True)
class NodeWindow:
    """One node of one site reserved for one job over ``[start, end)``."""

    site: str
    node: int
    start: float
    end: float
    job_id: str

    def overlaps(self, other: "NodeWindow") -> bool:
        """True when both windows claim the same node at the same time."""
        if self.site != other.site or self.node != other.node:
            return False
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class OutageRecord:
    """Declared lost capacity: a site (or some of its nodes) down from
    ``start`` until ``end`` (``None`` = never repaired in the run).

    ``nodes`` of ``None`` means the whole site; otherwise the specific
    node indices removed by a pool shrink.
    """

    site: str
    start: float
    end: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None

    def covers(self, window: NodeWindow) -> bool:
        """Whether a reservation window overlaps this outage interval."""
        if window.site != self.site:
            return False
        if self.nodes is not None and window.node not in self.nodes:
            return False
        end = self.end if self.end is not None else float("inf")
        return window.start < end and self.start < window.end


#: What one acquisition decided: ``(node ids, start, end, job id)``.
_Grant = Tuple[Tuple[int, ...], float, float, str]


class SitePool:
    """Free-node bookkeeping for one site, with a reservation history.

    Nodes are identified by index ``0 .. num_nodes-1``.  Acquisition is
    deterministic (lowest free indices first) and records one *grant* —
    ``(node ids, start, end, job id)`` — immediately: the end time is
    known at placement because the simulated execution time is.  Release
    happens later, when the broker pops the matching completion event —
    or early, when a grid fault preempts the job (the broker then
    truncates the job's grants to the preemption instant).
    :attr:`windows` derives the per-node :class:`NodeWindow` history
    from the grants on demand.

    Grid faults quiesce a pool in two ways: :meth:`fail` marks the whole
    site down (``free_count`` reports zero until :meth:`repair`), and
    :meth:`shrink` removes specific high-indexed nodes until
    :meth:`restore`.  Both record :class:`OutageRecord` entries.

    Free nodes live in one ascending list.  A site has tens of nodes, so
    slicing the lowest ``k`` off the front and re-sorting a nearly
    sorted list on release are single C-level operations that no
    per-node heap traffic can match at this size, and "lowest free index
    first" holds by construction.  Every capacity change reports to
    ``on_change`` — the ledger's version clock.
    """

    def __init__(
        self,
        name: str,
        num_nodes: int,
        on_change: Optional[Callable[[], None]] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"site '{name}' needs at least one node")
        self.name = name
        self.num_nodes = num_nodes
        self._free = list(range(num_nodes))  # kept ascending
        self._removed: Set[int] = set()  # shrunk out of service
        self.down = False
        self._grants: List[_Grant] = []  # one per acquisition
        self.outages: List[OutageRecord] = []
        self._on_change = on_change

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()

    @property
    def free_count(self) -> int:
        return 0 if self.down else len(self._free)

    @property
    def windows(self) -> List[NodeWindow]:
        """The per-node reservation history, in acquisition order.

        A read-only view: a fresh list derived from the grants on every
        read, so auditing a run is what pays for its windows.
        """
        return [
            NodeWindow(
                site=self.name, node=node, start=start, end=end, job_id=job_id
            )
            for nodes, start, end, job_id in self._grants
            for node in nodes
        ]

    @hot
    def acquire(
        self, count: int, job_id: str, start: float, end: float
    ) -> Tuple[int, ...]:
        """Reserve ``count`` nodes over ``[start, end)``; returns their ids."""
        if count <= 0:
            raise ConfigurationError("must acquire at least one node")
        if end <= start:
            raise ConfigurationError("reservation must have positive length")
        if self.down:
            raise ConfigurationError(
                f"site '{self.name}' is down; cannot acquire nodes"
            )
        free = self._free
        if count > len(free):
            raise ConfigurationError(
                f"site '{self.name}' has {len(free)} free node(s); "
                f"cannot acquire {count}"
            )
        taken = tuple(free[:count])
        del free[:count]
        self._grants.append((taken, start, end, job_id))
        self._changed()
        return taken

    @hot
    def release(self, nodes: Tuple[int, ...]) -> None:
        """Return previously acquired nodes to the free pool.

        A released node that was shrunk away while the job held it goes
        out of service instead of back to the free list.
        """
        free = self._free
        for node in nodes:
            at = bisect.bisect_left(free, node)
            if (
                at < len(free) and free[at] == node
            ) or not 0 <= node < self.num_nodes:
                raise ConfigurationError(
                    f"site '{self.name}': node {node} is not reserved"
                )
        removed = self._removed
        free.extend([node for node in nodes if node not in removed])
        free.sort()
        self._changed()

    # ------------------------------------------------------------------
    # Grid-fault quiescing
    # ------------------------------------------------------------------

    def truncate_windows(self, job_id: str, at: float) -> None:
        """Cut a preempted job's open reservation windows short at ``at``.

        Grants that had not started by ``at`` are dropped entirely, so
        the recorded history never claims a node during a declared
        outage.
        """
        rewritten: List[_Grant] = []
        for grant in self._grants:
            nodes, start, end, owner = grant
            if owner != job_id or end <= at:
                rewritten.append(grant)
            elif start < at:
                rewritten.append((nodes, start, at, owner))
            # else: the grant never materialized; drop it
        self._grants = rewritten

    def fail(self, at: float) -> None:
        """Mark the whole site down from ``at`` (idempotent)."""
        if self.down:
            return
        self.down = True
        self.outages.append(OutageRecord(site=self.name, start=at))
        self._changed()

    def repair(self, at: float) -> None:
        """Bring a failed site back at ``at``."""
        if not self.down:
            raise ConfigurationError(
                f"site '{self.name}' is not down; nothing to repair"
            )
        self.down = False
        # Close the open whole-site record specifically: a shrink during
        # the outage appends its own (nodes=...) record after ours.
        for index in range(len(self.outages) - 1, -1, -1):
            record = self.outages[index]
            if record.end is None and record.nodes is None:
                self.outages[index] = OutageRecord(
                    site=self.name, start=record.start, end=at
                )
                break
        self._changed()

    def shrink(self, count: int, at: float) -> Tuple[int, ...]:
        """Remove the ``count`` highest not-yet-removed nodes at ``at``.

        Returns the removed node indices; the broker preempts any
        running job holding one of them.  Shrinking more nodes than the
        site still has removes what is left.
        """
        if count <= 0:
            raise ConfigurationError("must shrink by at least one node")
        victims = tuple(
            node
            for node in range(self.num_nodes - 1, -1, -1)
            if node not in self._removed
        )[:count]
        if not victims:
            return ()
        self._removed.update(victims)
        self._free = [node for node in self._free if node not in self._removed]
        self.outages.append(
            OutageRecord(
                site=self.name, start=at, nodes=tuple(sorted(victims))
            )
        )
        self._changed()
        return victims

    def restore(self, nodes: Tuple[int, ...], at: float) -> None:
        """Return previously shrunk nodes to service at ``at``."""
        restored = set(nodes)
        missing = restored - self._removed
        if missing:
            raise ConfigurationError(
                f"site '{self.name}': nodes {sorted(missing)} were not "
                "shrunk; cannot restore them"
            )
        self._removed -= restored
        self._free.extend(restored)
        self._free.sort()
        for index, record in enumerate(self.outages):
            if record.end is None and record.nodes is not None and set(
                record.nodes
            ) == restored:
                self.outages[index] = OutageRecord(
                    site=record.site,
                    start=record.start,
                    end=at,
                    nodes=record.nodes,
                )
                break
        self._changed()


class GridLedger:
    """All :class:`SitePool` instances of one broker run.

    :attr:`version` is a monotonically increasing change clock: it ticks
    on every capacity movement in any pool (acquire, release, outage,
    repair, shrink, restore).  A placement decision that found no
    feasible candidate at version ``v`` is guaranteed to find none until
    the version moves, which is what makes the broker's blocked-head
    check O(1) amortized.
    """

    def __init__(self, capacities: Dict[str, int]) -> None:
        self.version = 0
        self._free_map: Dict[str, int] = {}
        self._pools: Dict[str, SitePool] = {}
        for name, nodes in sorted(capacities.items()):
            pool = SitePool(name, nodes)
            pool._on_change = self._make_tick(pool)
            self._pools[name] = pool
            self._free_map[name] = pool.free_count

    def _make_tick(self, pool: SitePool) -> Callable[[], None]:
        def tick() -> None:
            self.version += 1
            self._free_map[pool.name] = pool.free_count

        return tick

    @classmethod
    def from_topology(cls, topology: GridTopology) -> "GridLedger":
        return cls(
            {site.name: site.cluster.num_nodes for site in topology.sites()}
        )

    def pool(self, site: str) -> SitePool:
        pool = self._pools.get(site)
        if pool is None:
            raise ConfigurationError(f"no node pool for site '{site}'")
        return pool

    def free_counts(self) -> Dict[str, int]:
        """Every pool's current free count, keyed by site name.

        A *live view* maintained incrementally by the pools' change
        hooks — callers must treat it as read-only.  The broker's
        feasibility scan reads it once per decision and compares plain
        integers against each candidate's node requirements.
        """
        return self._free_map

    def all_windows(self) -> List[NodeWindow]:
        """Every reservation made so far, in acquisition order per site."""
        windows: List[NodeWindow] = []
        for name in sorted(self._pools):
            windows.extend(self._pools[name].windows)
        return windows

    def all_outages(self) -> List[OutageRecord]:
        """Every declared capacity loss, in declaration order per site."""
        outages: List[OutageRecord] = []
        for name in sorted(self._pools):
            outages.extend(self._pools[name].outages)
        return outages
