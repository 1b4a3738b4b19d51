"""Model oracle for :class:`repro.broker.events.SitePool`.

The simplest pool that could work: a sorted free list rebuilt with
``sorted()`` on every release/restore, and an *eager* history — one
:class:`NodeWindow` appended per node at acquisition, rewritten node by
node on truncation.  The production pool keeps one record per grant and
derives the windows on demand; the stateful test in
``test_pool_stateful.py`` drives both with the same calls and requires
the same answers, so the two history representations check each other.
Deliberately shares no code with ``SitePool``.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.broker.events import NodeWindow, OutageRecord
from repro.simgrid.errors import ConfigurationError


class SitePoolModel:
    def __init__(self, name: str, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"site '{name}' needs at least one node")
        self.name = name
        self.num_nodes = num_nodes
        self._free = list(range(num_nodes))  # kept sorted
        self._removed: Set[int] = set()
        self.down = False
        self.windows: List[NodeWindow] = []
        self.outages: List[OutageRecord] = []
        self.changes = 0  # what the ledger's version clock would count

    @property
    def free_count(self) -> int:
        return 0 if self.down else len(self._free)

    def acquire(
        self, count: int, job_id: str, start: float, end: float
    ) -> Tuple[int, ...]:
        if count <= 0:
            raise ConfigurationError("must acquire at least one node")
        if end <= start:
            raise ConfigurationError("reservation must have positive length")
        if self.down:
            raise ConfigurationError(
                f"site '{self.name}' is down; cannot acquire nodes"
            )
        if count > len(self._free):
            raise ConfigurationError(
                f"site '{self.name}' has {len(self._free)} free node(s); "
                f"cannot acquire {count}"
            )
        taken = tuple(self._free[:count])
        del self._free[:count]
        for node in taken:
            self.windows.append(
                NodeWindow(
                    site=self.name,
                    node=node,
                    start=start,
                    end=end,
                    job_id=job_id,
                )
            )
        self.changes += 1
        return taken

    def release(self, nodes: Tuple[int, ...]) -> None:
        for node in nodes:
            if node in self._free or not 0 <= node < self.num_nodes:
                raise ConfigurationError(
                    f"site '{self.name}': node {node} is not reserved"
                )
        returned = [n for n in nodes if n not in self._removed]
        self._free = sorted(self._free + returned)
        self.changes += 1

    def truncate_windows(self, job_id: str, at: float) -> None:
        rewritten: List[NodeWindow] = []
        for window in self.windows:
            if window.job_id != job_id or window.end <= at:
                rewritten.append(window)
            elif window.start < at:
                rewritten.append(
                    NodeWindow(
                        site=window.site,
                        node=window.node,
                        start=window.start,
                        end=at,
                        job_id=window.job_id,
                    )
                )
        self.windows = rewritten

    def fail(self, at: float) -> None:
        if self.down:
            return
        self.down = True
        self.outages.append(OutageRecord(site=self.name, start=at))
        self.changes += 1

    def repair(self, at: float) -> None:
        if not self.down:
            raise ConfigurationError(
                f"site '{self.name}' is not down; nothing to repair"
            )
        self.down = False
        for index in range(len(self.outages) - 1, -1, -1):
            record = self.outages[index]
            if record.end is None and record.nodes is None:
                self.outages[index] = OutageRecord(
                    site=self.name, start=record.start, end=at
                )
                break
        self.changes += 1

    def shrink(self, count: int, at: float) -> Tuple[int, ...]:
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
        self._free = [n for n in self._free if n not in self._removed]
        self.outages.append(
            OutageRecord(
                site=self.name, start=at, nodes=tuple(sorted(victims))
            )
        )
        self.changes += 1
        return victims

    def restore(self, nodes: Tuple[int, ...], at: float) -> None:
        restored = set(nodes)
        missing = restored - self._removed
        if missing:
            raise ConfigurationError(
                f"site '{self.name}': nodes {sorted(missing)} were not "
                "shrunk; cannot restore them"
            )
        self._removed -= restored
        self._free = sorted(self._free + list(restored))
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
        self.changes += 1
