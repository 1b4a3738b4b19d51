"""ASCII rendering of trace workloads.

:func:`format_trace` prints one table per trace: identity (name, source,
fingerprint), arrival span, and the per-VO composition (job counts,
deadline share, priority spread, dominant datasets).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # avoid a runtime analysis -> workloads import cycle
    from repro.workloads.traces import TraceWorkload

__all__ = ["format_trace"]


def format_trace(trace: "TraceWorkload") -> str:
    """Summarize a trace workload as an ASCII table."""
    jobs = trace.jobs
    lines: List[str] = [
        f"trace: {trace.name} ({trace.source}, {len(jobs)} jobs)",
        f"  fingerprint {trace.fingerprint[:16]}…",
        (
            f"  arrivals over {trace.horizon:.4f}s  "
            f"mean gap {trace.horizon / max(len(jobs) - 1, 1):.6f}s"
        ),
    ]
    per_vo: Dict[str, List[Any]] = {}
    for job in jobs:
        per_vo.setdefault(job.vo or "-", []).append(job)
    header = (
        f"  {'vo':<12} {'jobs':>7} {'share':>7} {'deadlines':>10} "
        f"{'priorities':>11}  datasets"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for vo in sorted(per_vo):
        members = per_vo[vo]
        with_deadline = sum(1 for j in members if j.deadline is not None)
        prios = sorted({j.priority for j in members})
        counts: Dict[str, int] = {}
        for j in members:
            counts[j.dataset_key] = counts.get(j.dataset_key, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        datasets = ", ".join(f"{k} x{n}" for k, n in top)
        if len(counts) > 3:
            datasets += f", +{len(counts) - 3} more"
        prio_label = "/".join(str(p) for p in prios)
        lines.append(
            f"  {vo:<12} {len(members):>7} "
            f"{100 * len(members) / len(jobs):>6.1f}% "
            f"{100 * with_deadline / len(members):>9.1f}% "
            f"{prio_label:>11}  {datasets}"
        )
    return "\n".join(lines)
