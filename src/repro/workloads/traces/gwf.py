"""Grid Workload Archive (``.gwf``) traces, mapped onto the repro grid.

The GWA distributes real production traces (DAS-2, Grid'5000, NorduGrid,
AuverGrid, SHARCNET, LCG) in the Grid Workloads Format: one line per
job, 29 whitespace-separated columns, ``#`` comments, ``-1`` for any
unknown value.  :func:`parse_gwf` reads that format and maps each row
onto the repro vocabulary:

- **SubmitTime** (col 1) -> ``arrival`` (shifted so the trace starts at
  its origin; an explicit ``# repro-origin:`` header pins the shift);
- **RunTime** (col 3) -> a ``(workload, size)`` pair via the
  :class:`GwfMapping` runtime bins — real traces do not run k-means or
  vortex detection, so the mapping bins observed runtimes onto the
  registered mining workloads of comparable weight;
- **ReqTime** (col 8), when present, -> a deadline at
  ``arrival + ReqTime`` (the user's own wall-time request);
- **QueueID** (col 14), when present, -> ``priority``;
- **VOID** (col 27), else **GroupID** (col 12), -> the ``vo`` tag.

:func:`trace_to_gwf` writes any :class:`TraceWorkload` back out as GWF.
It emits registry headers (``# repro-executable:``, ``# repro-vo:``,
``# repro-origin:``) so the workload/size/VO assignment survives the
trip through ExecutableID/VOID integers; parsing a file we wrote
recovers the identical trace (the round-trip property the test suite
drives with Hypothesis).  Foreign GWA files lack those headers and fall
back to the runtime-bin mapping — lossy by design, exact by fiat.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.broker.jobs import BrokerJob
from repro.core.durable import read_text_document
from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.artifact import TraceWorkload

__all__ = [
    "GWF_COLUMNS",
    "GwfMapping",
    "DEFAULT_GWF_MAPPING",
    "parse_gwf",
    "trace_to_gwf",
]

#: The 29 standard GWF columns, in file order.
GWF_COLUMNS: Tuple[str, ...] = (
    "JobID", "SubmitTime", "WaitTime", "RunTime", "NProcs",
    "AverageCPUTimeUsed", "UsedMemory", "ReqNProcs", "ReqTime",
    "ReqMemory", "Status", "UserID", "GroupID", "ExecutableID",
    "QueueID", "PartitionID", "OrigSiteID", "LastRunSiteID",
    "JobStructure", "JobStructureParams", "UsedNetwork",
    "UsedLocalDiskSpace", "UsedResources", "ReqPlatform", "ReqNetwork",
    "ReqLocalDiskSpace", "ReqResources", "VOID", "ProjectID",
)

_SUBMIT, _RUNTIME, _REQTIME = 1, 3, 8
_GROUP, _EXECUTABLE, _QUEUE, _VOID = 12, 13, 14, 27


@dataclass(frozen=True)
class GwfMapping:
    """Runtime bins assigning each GWF row a repro ``(workload, size)``.

    ``bins`` are ``(upper_runtime_bound, workload, size)`` triples in
    strictly increasing bound order; a row whose RunTime is below the
    bound (and not below the previous one) takes that entry.  Rows at or
    beyond the last bound take ``overflow``.  Rows with unknown runtime
    (``-1``) take the first bin — the lightest class, matching the GWA
    convention that missing runtimes are overwhelmingly tiny failed
    jobs.
    """

    bins: Tuple[Tuple[float, str, Optional[str]], ...]
    overflow: Tuple[str, Optional[str]]

    def __post_init__(self) -> None:
        if not self.bins:
            raise ConfigurationError("GWF mapping needs at least one bin")
        bounds = [bound for bound, _, _ in self.bins]
        if any(b <= 0 for b in bounds) or sorted(set(bounds)) != bounds:
            raise ConfigurationError(
                "GWF mapping bounds must be positive and strictly increasing"
            )

    def classify(self, runtime: Optional[float]) -> Tuple[str, Optional[str]]:
        """The ``(workload, size)`` for an observed runtime (secs)."""
        if runtime is None:
            _, workload, size = self.bins[0]
            return workload, size
        for bound, workload, size in self.bins:
            if runtime < bound:
                return workload, size
        return self.overflow


#: Bins roughly matched to the registered workloads' relative weights:
#: short jobs -> kmeans on the default set, mid -> knn, long -> em on
#: the large set, and the heavy tail -> vortex on the full volume.
DEFAULT_GWF_MAPPING = GwfMapping(
    bins=(
        (60.0, "kmeans", None),
        (600.0, "knn", "350 MB"),
        (3600.0, "em", "350 MB"),
        (14400.0, "em", "1.4 GB"),
    ),
    overflow=("vortex", None),
)


def _field(
    parts: List[str], index: int, where: str, integer: bool = False
) -> Optional[float]:
    """Column value as a float, ``None`` when absent or ``-1``."""
    if index >= len(parts):
        return None
    value = _number(parts[index], f"{where} column {GWF_COLUMNS[index]}", integer)
    return None if value < 0 else value


def _number(raw: str, what: str, integer: bool = False) -> float:
    """``raw`` as a finite (if ``integer``, integral) float; anything
    else is a :class:`ConfigurationError` naming ``what``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"GWF {what}: {raw!r} is not {kind}")
    return value


def parse_gwf(
    source: Union[str, pathlib.Path],
    mapping: GwfMapping = DEFAULT_GWF_MAPPING,
    *,
    name: Optional[str] = None,
) -> TraceWorkload:
    """Parse GWF text (or a path to it) into a :class:`TraceWorkload`.

    ``source`` holding a newline is treated as the text itself;
    otherwise it is read as a path.  Arrivals are shifted by the trace
    origin — the smallest SubmitTime, or the ``# repro-origin:`` header
    when present (files we wrote pin it to keep round-trips exact).
    """
    if isinstance(source, pathlib.Path) or "\n" not in str(source):
        path = pathlib.Path(source)
        text = read_text_document(path, "GWF trace", "convert it to UTF-8 text")
        trace_name = name or path.stem
    else:
        text = str(source)
        trace_name = name or "gwf-trace"

    origin: Optional[float] = None
    deadline_absolute = False
    executables: Dict[int, Tuple[str, Optional[str]]] = {}
    vo_names: Dict[int, str] = {}
    rows: List[Tuple[str, List[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("repro-origin:"):
                origin = _number(
                    body.split(":", 1)[1].strip(),
                    f"line {lineno} repro-origin header",
                )
            elif body.startswith("repro-deadline:"):
                deadline_absolute = (
                    body.split(":", 1)[1].strip() == "absolute"
                )
            elif body.startswith("repro-executable:"):
                # SIZE is the line's remainder: dataset labels contain
                # spaces ("350 MB"), so only two splits are safe.
                fields = body.split(":", 1)[1].split(None, 2)
                if len(fields) != 3:
                    raise ConfigurationError(
                        f"GWF line {lineno}: malformed repro-executable "
                        "header (want: ID WORKLOAD SIZE)"
                    )
                eid, workload, size = fields
                what = f"line {lineno} repro-executable ID"
                executables[int(_number(eid, what, True))] = (
                    workload, None if size == "-" else size,
                )
            elif body.startswith("repro-vo:"):
                fields = body.split(":", 1)[1].split(None, 1)
                if len(fields) != 2:
                    raise ConfigurationError(
                        f"GWF line {lineno}: malformed repro-vo header "
                        "(want: ID NAME)"
                    )
                vid = _number(fields[0], f"line {lineno} repro-vo ID", True)
                vo_names[int(vid)] = fields[1]
            continue
        parts = line.split()
        if len(parts) < 4:
            raise ConfigurationError(
                f"GWF line {lineno}: want at least 4 columns "
                "(JobID SubmitTime WaitTime RunTime), got "
                f"{len(parts)}"
            )
        rows.append((f"line {lineno}", parts))

    if not rows:
        raise ConfigurationError(
            f"GWF trace '{trace_name}' contains no job rows"
        )

    if origin is None:
        origin = min(
            submit
            for submit in (_field(parts, _SUBMIT, where) for where, parts in rows)
            if submit is not None
        )

    jobs: List[BrokerJob] = []
    for where, parts in rows:
        submit = _field(parts, _SUBMIT, where)
        arrival = 0.0 if submit is None else submit - origin
        if arrival < 0:
            raise ConfigurationError(
                f"GWF {where}: SubmitTime precedes the trace origin "
                f"({submit!r} < {origin!r})"
            )
        exec_id = _field(parts, _EXECUTABLE, where, integer=True)
        if exec_id is not None and int(exec_id) in executables:
            workload, size = executables[int(exec_id)]
        else:
            workload, size = mapping.classify(_field(parts, _RUNTIME, where))
        req_time = _field(parts, _REQTIME, where)
        if req_time is None or req_time <= 0:
            deadline = None
        elif deadline_absolute:
            # Files we wrote carry the absolute deadline (see
            # trace_to_gwf): re-deriving it from a delta would drift by
            # an ulp and break the fingerprint round-trip.
            deadline = req_time
        else:
            deadline = arrival + req_time
        queue = _field(parts, _QUEUE, where, integer=True)
        void = _field(parts, _VOID, where, integer=True)
        if void is not None:
            vo: Optional[str] = vo_names.get(int(void), f"vo{int(void)}")
        else:
            group = _field(parts, _GROUP, where, integer=True)
            vo = f"group{int(group)}" if group is not None else None
        jobs.append(
            BrokerJob(
                job_id=parts[0],
                workload=workload,
                size=size,
                arrival=arrival,
                deadline=deadline,
                priority=int(queue) if queue is not None else 0,
                vo=vo,
            )
        )

    job_ids = [job.job_id for job in jobs]
    if len(set(job_ids)) != len(job_ids):
        raise ConfigurationError(
            f"GWF trace '{trace_name}' has duplicate JobIDs"
        )
    return TraceWorkload.from_jobs(trace_name, jobs, source="gwf")


def _format_value(value: float) -> str:
    """Floats via ``repr`` (lossless round-trip), integers bare."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def trace_to_gwf(
    trace: TraceWorkload, path: Optional[Union[str, pathlib.Path]] = None
) -> str:
    """Render a trace as GWF text; optionally write it durably.

    The emitted registry headers make :func:`parse_gwf` an exact
    inverse: ``parse_gwf(trace_to_gwf(t))`` reproduces ``t``'s jobs
    (same fingerprint modulo name/spec provenance).
    """
    from repro.core.durable import atomic_write_text

    exec_ids: Dict[Tuple[str, Optional[str]], int] = {}
    vo_ids: Dict[str, int] = {}
    for job in trace.jobs:
        key = (job.workload, job.size)
        if key not in exec_ids:
            exec_ids[key] = len(exec_ids) + 1
        if job.vo is not None and job.vo not in vo_ids:
            vo_ids[job.vo] = len(vo_ids) + 1

    lines = [
        f"# GWF trace '{trace.name}' ({len(trace.jobs)} jobs), written "
        "by repro.workloads.traces",
        "# " + " ".join(GWF_COLUMNS),
        "# repro-origin: 0",
        "# repro-deadline: absolute",
    ]
    for (workload, size), eid in exec_ids.items():
        lines.append(
            f"# repro-executable: {eid} {workload} "
            f"{size if size is not None else '-'}"
        )
    for vo, vid in vo_ids.items():
        lines.append(f"# repro-vo: {vid} {vo}")

    for job in trace.jobs:
        row = ["-1"] * len(GWF_COLUMNS)
        row[0] = job.job_id
        row[_SUBMIT] = _format_value(job.arrival)
        row[_EXECUTABLE] = str(exec_ids[(job.workload, job.size)])
        if job.deadline is not None:
            row[_REQTIME] = _format_value(job.deadline)
        row[_QUEUE] = str(job.priority)
        if job.vo is not None:
            row[_VOID] = str(vo_ids[job.vo])
        lines.append(" ".join(row))

    text = "\n".join(lines) + "\n"
    if path is not None:
        atomic_write_text(path, text)
    return text
