"""The broker's result artefact: placements, rejections, metrics.

A :class:`BrokerReport` is the durable output of one ``repro broker``
run: per policy, where every job ran (with the exact node windows), why
any job was rejected, the headline metrics (makespan, mean queue wait,
deadline-miss rate) and the rolling prediction-error series in
completion order — the curve that shows online calibration converging.

Runs under a grid fault schedule additionally carry the fault timeline
(:class:`GridFaultEvent`), every torn-down attempt
(:class:`BrokerPreemption`), jobs whose retry budget ran out
(:class:`TerminalFailure`), and resilience metrics — goodput, recovery
overhead, per-fault-kind breakdowns.  Fault-free runs serialize exactly
as they did before the fault model existed: the resilience keys are
omitted, so pre-fault reports stay byte-identical.

Serialization goes through :func:`repro.core.durable.canonical_json`,
so replaying the same seeded workload produces a byte-identical report
file (asserted by ``benchmarks/bench_broker.py``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.durable import atomic_write_json
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "BrokerPlacement",
    "BrokerRejection",
    "BrokerPreemption",
    "GridFaultEvent",
    "TerminalFailure",
    "PolicyRun",
    "BrokerReport",
]

_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class BrokerPlacement:
    """One completed job: where, when, and how well it was predicted.

    ``attempt`` counts placement attempts (1 = never preempted);
    ``recovery_charge`` is the :math:`T_{recover}` seconds folded into
    this attempt's execution by checkpoint-aware migration.
    """

    job_id: str
    workload: str
    replica_site: str
    compute_site: str
    data_nodes: int
    compute_nodes: int
    data_node_ids: Tuple[int, ...]
    compute_node_ids: Tuple[int, ...]
    arrival: float
    start: float
    end: float
    predicted_total: float
    raw_predicted_total: float
    deadline: Optional[float] = None
    priority: int = 0
    attempt: int = 1
    recovery_charge: float = 0.0

    @property
    def wait(self) -> float:
        """Queue wait: placement start minus arrival."""
        return self.start - self.arrival

    @property
    def actual_total(self) -> float:
        return self.end - self.start

    @property
    def relative_error(self) -> float:
        """|actual - predicted| / actual of the calibrated prediction."""
        return abs(self.actual_total - self.predicted_total) / self.actual_total

    @property
    def missed_deadline(self) -> bool:
        return self.deadline is not None and self.end > self.deadline

    @property
    def label(self) -> str:
        return (
            f"{self.job_id}: {self.replica_site}[{self.data_nodes}] -> "
            f"{self.compute_site}[{self.compute_nodes}]"
        )


@dataclass(frozen=True, slots=True)
class BrokerRejection:
    """One job the broker refused, with a machine-usable code.

    ``vo``/``arrival_index`` carry the refused job's trace identity when
    the workload provides one (``None`` for hand-written workloads, and
    omitted from serialization so pre-trace reports stay byte-identical).
    """

    job_id: str
    workload: str
    time: float
    code: str
    reason: str
    deadline: Optional[float] = None
    vo: Optional[str] = None
    arrival_index: Optional[int] = None


@dataclass(frozen=True, slots=True)
class GridFaultEvent:
    """One grid fault becoming active or healing, on the broker clock."""

    time: float
    kind: str
    target: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class BrokerPreemption:
    """One execution attempt torn down by a grid fault.

    ``wasted`` is the simulated time the attempt spent that the next
    attempt cannot reuse; ``kept_fraction`` is the share of the job's
    passes whose checkpoints survived (0 under resubmit recovery).
    """

    job_id: str
    workload: str
    attempt: int
    time: float
    start: float
    cause: str
    site: str
    wasted: float
    kept_fraction: float = 0.0


@dataclass(frozen=True, slots=True)
class TerminalFailure:
    """One admitted job the broker could not finish."""

    job_id: str
    workload: str
    time: float
    code: str
    reason: str
    attempts: int
    deadline: Optional[float] = None


@dataclass(frozen=True, slots=True)
class PolicyRun:
    """Everything one policy did to one job stream."""

    policy: str
    calibrated: bool
    placements: Tuple[BrokerPlacement, ...]
    rejections: Tuple[BrokerRejection, ...]
    #: (job_id, relative error) in *completion* order — the rolling
    #: prediction-error series.
    error_series: Tuple[Tuple[str, float], ...]
    #: Final calibration factors, ``component -> 'app @ resource' -> f``.
    calibration_factors: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )
    #: Recovery policy name when a grid fault schedule was installed.
    recovery: Optional[str] = None
    fault_events: Tuple[GridFaultEvent, ...] = ()
    preemptions: Tuple[BrokerPreemption, ...] = ()
    failures: Tuple[TerminalFailure, ...] = ()

    @property
    def label(self) -> str:
        suffix = "" if self.calibrated else " (uncalibrated)"
        return f"{self.policy}{suffix}"

    @property
    def faulted(self) -> bool:
        """Whether this run executed under a grid fault schedule."""
        return self.recovery is not None

    @property
    def jobs(self) -> int:
        return len(self.placements) + len(self.rejections) + len(self.failures)

    @property
    def makespan(self) -> float:
        """Completion time of the last placed job (0 when none ran)."""
        return max((p.end for p in self.placements), default=0.0)

    @property
    def mean_wait(self) -> float:
        if not self.placements:
            return 0.0
        return sum(p.wait for p in self.placements) / len(self.placements)

    @property
    def deadline_miss_rate(self) -> float:
        """Share of deadline jobs not served by their deadline.

        A *rejected* or *terminally failed* job with a deadline counts
        as missed — otherwise a policy could zero its miss rate by
        refusing or abandoning every hard job.
        """
        with_deadline = [p for p in self.placements if p.deadline is not None]
        unserved = [r for r in self.rejections if r.deadline is not None]
        unserved += [f for f in self.failures if f.deadline is not None]
        total = len(with_deadline) + len(unserved)
        if total == 0:
            return 0.0
        missed = sum(1 for p in with_deadline if p.missed_deadline)
        return (missed + len(unserved)) / total

    def mean_error(self, last: Optional[int] = None) -> float:
        """Mean relative prediction error, optionally of the last N jobs."""
        series = [err for _, err in self.error_series]
        if last is not None:
            series = series[-last:]
        if not series:
            return 0.0
        return sum(series) / len(series)

    # ------------------------------------------------------------------
    # Resilience metrics
    # ------------------------------------------------------------------

    @property
    def wasted_time(self) -> float:
        """Simulated node time lost to torn-down attempts."""
        return sum(p.wasted for p in self.preemptions)

    @property
    def recovery_charge_time(self) -> float:
        """Total :math:`T_{recover}` charged by migrations."""
        return sum(p.recovery_charge for p in self.placements)

    @property
    def recovery_overhead_time(self) -> float:
        """Wasted attempt time plus migration recovery charges."""
        return self.wasted_time + self.recovery_charge_time

    @property
    def goodput(self) -> float:
        """Useful execution time over total execution time spent.

        Useful time is the final attempts' execution minus recovery
        charges; the denominator adds the time wasted in torn-down
        attempts.  1.0 on a fault-free run; lower means the grid burned
        capacity on work it had to redo.
        """
        useful = sum(
            p.actual_total - p.recovery_charge for p in self.placements
        )
        spent = useful + self.recovery_overhead_time
        if spent <= 0.0:
            return 1.0
        return useful / spent

    @property
    def rejections_by_vo(self) -> Dict[str, int]:
        """Rejection counts per VO tag, sorted by key.

        Only VO-tagged rejections are counted — on six-figure trace runs
        this is the aggregate reports read instead of the per-job list.
        """
        counts: Dict[str, int] = {}
        for r in self.rejections:
            if r.vo is not None:
                counts[r.vo] = counts.get(r.vo, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def preemptions_by_cause(self) -> Dict[str, int]:
        """Preemption counts keyed by fault kind, sorted by key."""
        counts: Dict[str, int] = {}
        for p in self.preemptions:
            counts[p.cause] = counts.get(p.cause, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Fault-event counts keyed by event kind, sorted by key."""
        counts: Dict[str, int] = {}
        for e in self.fault_events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return dict(sorted(counts.items()))


@dataclass(frozen=True, slots=True)
class BrokerReport:
    """Per-policy outcomes of one broker workload."""

    name: str
    runs: Tuple[PolicyRun, ...]

    def run(self, label: str) -> PolicyRun:
        for run in self.runs:
            if run.label == label or run.policy == label:
                return run
        raise ConfigurationError(f"no policy run labelled '{label}'")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "broker-report",
            "name": self.name,
            "runs": [_run_to_dict(run) for run in self.runs],
        }

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Durably write the report as canonical JSON."""
        return atomic_write_json(path, self.to_dict())


# ----------------------------------------------------------------------


def _rejection_to_dict(r: BrokerRejection) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "job_id": r.job_id,
        "workload": r.workload,
        "time": r.time,
        "code": r.code,
        "reason": r.reason,
        "deadline": r.deadline,
    }
    # Pre-trace reports stay byte-identical: emit the trace identity
    # only when the workload actually carries one.
    if r.vo is not None:
        entry["vo"] = r.vo
    if r.arrival_index is not None:
        entry["arrival_index"] = r.arrival_index
    return entry


def _placement_to_dict(p: BrokerPlacement) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "job_id": p.job_id,
        "workload": p.workload,
        "replica_site": p.replica_site,
        "compute_site": p.compute_site,
        "data_nodes": p.data_nodes,
        "compute_nodes": p.compute_nodes,
        "data_node_ids": list(p.data_node_ids),
        "compute_node_ids": list(p.compute_node_ids),
        "arrival": p.arrival,
        "start": p.start,
        "end": p.end,
        "predicted_total": p.predicted_total,
        "raw_predicted_total": p.raw_predicted_total,
        "deadline": p.deadline,
        "priority": p.priority,
    }
    # Fault-free reports stay byte-identical: emit the resilience
    # fields only when they deviate from the fault-free defaults.
    if p.attempt != 1:
        entry["attempt"] = p.attempt
    if p.recovery_charge:
        entry["recovery_charge"] = p.recovery_charge
    return entry


def _run_to_dict(run: PolicyRun) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "policy": run.policy,
        "calibrated": run.calibrated,
        "placements": [_placement_to_dict(p) for p in run.placements],
        "rejections": [_rejection_to_dict(r) for r in run.rejections],
        "error_series": [[job_id, err] for job_id, err in run.error_series],
        "calibration_factors": run.calibration_factors,
        "metrics": {
            "jobs": run.jobs,
            "completed": len(run.placements),
            "rejected": len(run.rejections),
            "makespan": run.makespan,
            "mean_wait": run.mean_wait,
            "deadline_miss_rate": run.deadline_miss_rate,
            "mean_error": run.mean_error(),
        },
    }
    by_vo = run.rejections_by_vo
    if by_vo:
        doc["metrics"]["rejections_by_vo"] = by_vo
    if run.faulted:
        doc["recovery"] = run.recovery
        doc["fault_events"] = [
            {
                "time": e.time,
                "kind": e.kind,
                "target": e.target,
                "detail": e.detail,
            }
            for e in run.fault_events
        ]
        doc["preemptions"] = [
            {
                "job_id": p.job_id,
                "workload": p.workload,
                "attempt": p.attempt,
                "time": p.time,
                "start": p.start,
                "cause": p.cause,
                "site": p.site,
                "wasted": p.wasted,
                "kept_fraction": p.kept_fraction,
            }
            for p in run.preemptions
        ]
        doc["failures"] = [
            {
                "job_id": f.job_id,
                "workload": f.workload,
                "time": f.time,
                "code": f.code,
                "reason": f.reason,
                "attempts": f.attempts,
                "deadline": f.deadline,
            }
            for f in run.failures
        ]
        doc["metrics"]["failed"] = len(run.failures)
        doc["metrics"]["resilience"] = {
            "goodput": run.goodput,
            "wasted_time": run.wasted_time,
            "recovery_charge_time": run.recovery_charge_time,
            "recovery_overhead_time": run.recovery_overhead_time,
            "preemptions": len(run.preemptions),
            "preemptions_by_cause": run.preemptions_by_cause,
            "fault_counts": run.fault_counts,
        }
    return doc
