"""Grid-scoped fault specifications: what goes wrong *between* jobs.

The specs in :mod:`repro.faults.specs` describe failures inside one
middleware execution (a data node dying mid-pass).  The specs here
describe grid weather as seen by the broker: whole sites disappearing,
node pools shrinking under a site's feet, wide-area paths degrading, and
jobs whose execution attempts fail for reasons outside the middleware's
fault model.  They are delivered as simulated-time events through the
broker's :class:`~repro.broker.events.EventQueue`, so a faulted broker
run is exactly as replayable as a fault-free one.

All times are absolute simulated seconds on the broker clock.  The four
kinds:

- :class:`SiteOutage`         — a whole site (repository or compute) goes
  dark at ``at``; running jobs touching it are preempted, and the site
  returns after ``repair_after`` seconds (``None`` = never).
- :class:`NodePoolShrink`     — a site loses its ``nodes``
  highest-indexed nodes (external users claiming capacity); jobs holding
  one of them are preempted.  ``restore_after`` returns the nodes.
- :class:`WanDegradation`     — an inter-site link loses bandwidth:
  ``factor`` multiplies the network time of every placement whose
  replica-to-compute path crosses the ``(site_a, site_b)`` edge while
  the degradation is active.
- :class:`TransientJobFailure`— the first ``failures`` execution
  attempts of one job abort at ``at_fraction`` of their runtime; the
  broker's recovery policy decides what happens next.

Scope matters: handing one of these to the execution-level scenario
parser (or vice versa) is a configuration error, not a silent no-op —
see :mod:`repro.faults.scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FaultError
from repro.hotpath import hot

__all__ = [
    "SiteOutage",
    "NodePoolShrink",
    "WanDegradation",
    "TransientJobFailure",
    "GridFaultSpec",
    "GridFaultSchedule",
]


def _check_time(value: float, name: str) -> None:
    if value < 0:
        raise FaultError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SiteOutage:
    """A whole site is unreachable over ``[at, at + repair_after)``.

    Jobs running on the site (serving data from it or computing on it)
    are preempted at ``at`` and routed through the broker's recovery
    policy.  ``repair_after`` of ``None`` means the site never returns;
    jobs that can only run there end the run terminally failed.
    """

    site: str
    at: float
    repair_after: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise FaultError("site outage needs a site name")
        _check_time(self.at, "at")
        if self.repair_after is not None and self.repair_after <= 0:
            raise FaultError(
                f"repair_after must be positive, got {self.repair_after}"
            )

    @property
    def repaired_at(self) -> Optional[float]:
        if self.repair_after is None:
            return None
        return self.at + self.repair_after


@dataclass(frozen=True)
class NodePoolShrink:
    """A site loses its ``nodes`` highest-indexed nodes at ``at``.

    Jobs holding one of the removed nodes are preempted; the rest of the
    site keeps serving.  ``restore_after`` returns the nodes that many
    seconds later (``None`` = the capacity is gone for the run).
    """

    site: str
    at: float
    nodes: int
    restore_after: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise FaultError("node-pool shrink needs a site name")
        _check_time(self.at, "at")
        if self.nodes < 1:
            raise FaultError(
                f"shrink must remove at least one node, got {self.nodes}"
            )
        if self.restore_after is not None and self.restore_after <= 0:
            raise FaultError(
                f"restore_after must be positive, got {self.restore_after}"
            )


@dataclass(frozen=True)
class WanDegradation:
    """An inter-site edge loses bandwidth over ``[at, at + duration)``.

    ``factor`` multiplies the network time of every placement whose
    replica-to-compute path crosses the undirected ``(site_a, site_b)``
    edge while the degradation is active (sampled at placement start —
    an in-flight transfer keeps the factor it started with).  Factors of
    concurrently active degradations on one path multiply.
    """

    site_a: str
    site_b: str
    factor: float
    at: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.site_a or not self.site_b:
            raise FaultError("WAN degradation needs two site names")
        if self.site_a == self.site_b:
            raise FaultError("WAN degradation endpoints must differ")
        if self.factor < 1.0:
            raise FaultError(
                f"WAN degradation factor must be >= 1, got {self.factor}"
            )
        _check_time(self.at, "at")
        if self.duration is not None and self.duration <= 0:
            raise FaultError(
                f"duration must be positive, got {self.duration}"
            )

    @hot
    def crosses(self, path: Sequence[str]) -> bool:
        """Whether a site path uses this (undirected) edge."""
        edge = frozenset((self.site_a, self.site_b))
        return any(
            frozenset((a, b)) == edge for a, b in zip(path, path[1:])
        )


@dataclass(frozen=True)
class TransientJobFailure:
    """The first ``failures`` attempts of one job abort mid-execution.

    ``at_fraction`` is how far each doomed attempt progresses before
    aborting; the time up to the last completed pass is recoverable by a
    checkpoint-aware recovery policy, the rest is wasted.
    """

    job_id: str
    failures: int = 1
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.job_id:
            raise FaultError("transient job failure needs a job id")
        if self.failures < 1:
            raise FaultError(
                f"failures must be >= 1, got {self.failures}"
            )
        if not 0.0 <= self.at_fraction < 1.0:
            raise FaultError(
                f"at_fraction must be in [0, 1), got {self.at_fraction}"
            )


GridFaultSpec = Union[
    SiteOutage, NodePoolShrink, WanDegradation, TransientJobFailure
]

_SPEC_TYPES = (SiteOutage, NodePoolShrink, WanDegradation, TransientJobFailure)


@dataclass(frozen=True)
class GridFaultSchedule:
    """An immutable, validated collection of grid fault specs.

    Validation beyond the per-spec checks: outages on one site must not
    overlap (two concurrent outages of the same site have no meaningful
    repair order), and at most one :class:`TransientJobFailure` may
    target a given job.
    """

    faults: Tuple[GridFaultSpec, ...] = ()

    def __init__(self, faults: Sequence[GridFaultSpec] = ()) -> None:
        for fault in faults:
            if not isinstance(fault, _SPEC_TYPES):
                raise FaultError(f"not a grid fault spec: {fault!r}")
        outages: Dict[str, List[SiteOutage]] = {}
        for fault in faults:
            if isinstance(fault, SiteOutage):
                outages.setdefault(fault.site, []).append(fault)
        for site, site_outages in outages.items():
            ordered = sorted(site_outages, key=lambda o: o.at)
            for earlier, later in zip(ordered, ordered[1:]):
                end = earlier.repaired_at
                if end is None or later.at < end:
                    raise FaultError(
                        f"overlapping outages on site '{site}': one "
                        f"starting at t={earlier.at} is still open at "
                        f"t={later.at}"
                    )
        seen_jobs = set()
        for fault in faults:
            if isinstance(fault, TransientJobFailure):
                if fault.job_id in seen_jobs:
                    raise FaultError(
                        f"multiple transient-failure specs for job "
                        f"'{fault.job_id}'; merge them into one"
                    )
                seen_jobs.add(fault.job_id)
        object.__setattr__(self, "faults", tuple(faults))

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, kind: type) -> List[GridFaultSpec]:
        """All faults of one spec class, in schedule order."""
        return [f for f in self.faults if isinstance(f, kind)]

    @property
    def transient_failures(self) -> Dict[str, TransientJobFailure]:
        """Transient-failure specs keyed by target job id."""
        return {
            f.job_id: f for f in self.faults
            if isinstance(f, TransientJobFailure)
        }
