"""The durable ``TraceWorkload`` artifact: jobs + provenance + identity.

A trace workload is a *value*: a named, ordered job list plus the spec
(or source description) that produced it.  Its canonical JSON document
carries a SHA-256 ``fingerprint`` over everything else in the document,
so

- two generators agree on a trace iff the fingerprints match (the
  replay identity the property tests assert), and
- a trace file edited by hand or truncated on disk is rejected at load
  time as corrupt rather than silently driving a different experiment
  (a format-1 file by the indented-JSON digest it was written with).

Artifacts are written with the repo's durable store (atomic replace,
canonical JSON) and versioned with the usual ``format_version`` gate.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.broker.jobs import BrokerJob, parse_jobs
from repro.core.durable import (
    CorruptStoreError,
    atomic_write_json,
    check_format_version,
    content_digest,
    json_field,
    legacy_digest,
    read_json_document,
)
from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.generate import generate_trace
from repro.workloads.traces.spec import TraceSpec

__all__ = ["TraceWorkload", "TRACE_FORMAT_VERSION"]

#: Format 1's ``fingerprint`` hashed indented JSON; it still loads.
TRACE_FORMAT_VERSION = 2


def _job_to_dict(job: BrokerJob) -> Dict[str, Any]:
    return {
        "id": job.job_id,
        "workload": job.workload,
        "size": job.size,
        "arrival": job.arrival,
        "deadline": job.deadline,
        "priority": job.priority,
        "vo": job.vo,
    }


@dataclass(frozen=True)
class TraceWorkload:
    """A named, fingerprinted job trace ready for the broker.

    ``jobs`` are in arrival order with ``arrival_index`` stamped;
    ``spec`` is the generator recipe as a plain dict (``None`` for
    traces parsed from external files) and ``source`` names where the
    trace came from (``"generated"``, ``"gwf"``, ...).
    """

    name: str
    jobs: Tuple[BrokerJob, ...]
    spec: Optional[Dict[str, Any]] = None
    source: str = "generated"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace workloads need a non-empty name")
        if not self.jobs:
            raise ConfigurationError("trace workloads need at least one job")
        for index, job in enumerate(self.jobs):
            if job.arrival_index != index:
                raise ConfigurationError(
                    f"trace job '{job.job_id}' has arrival_index "
                    f"{job.arrival_index}, expected {index} — traces must "
                    "be in stamped arrival order"
                )

    # -- construction --------------------------------------------------

    @classmethod
    def from_spec(
        cls, spec: TraceSpec, baselines: Any = None
    ) -> "TraceWorkload":
        """Generate the trace a spec describes (seeded, replayable)."""
        jobs = tuple(generate_trace(spec, baselines))
        return cls(
            name=spec.name, jobs=jobs, spec=spec.to_dict(),
            source="generated",
        )

    @classmethod
    def from_jobs(
        cls,
        name: str,
        jobs: Any,
        *,
        spec: Optional[Dict[str, Any]] = None,
        source: str = "generated",
    ) -> "TraceWorkload":
        """Wrap an explicit job list, restamping arrival indices."""
        ordered = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        from dataclasses import replace

        stamped = tuple(
            replace(job, arrival_index=index)
            for index, job in enumerate(ordered)
        )
        return cls(name=name, jobs=stamped, spec=spec, source=source)

    # -- identity ------------------------------------------------------

    def _payload(self, version: int = TRACE_FORMAT_VERSION) -> Dict[str, Any]:
        return {
            "format_version": version,
            "kind": "trace-workload",
            "name": self.name,
            "source": self.source,
            "spec": self.spec,
            "job_count": len(self.jobs),
            "jobs": [_job_to_dict(job) for job in self.jobs],
        }

    @property
    def fingerprint(self) -> str:
        """:func:`content_digest` of the document (sans the digest itself).

        Two traces are the same experiment input iff this matches —
        the identity that makes "(seed, spec) replays byte-identically"
        checkable with a string compare.
        """
        return content_digest(self._payload())

    def to_dict(self) -> Dict[str, Any]:
        doc = self._payload()
        doc["fingerprint"] = self.fingerprint
        return doc

    # -- durable persistence -------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically write the canonical artifact JSON."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "TraceWorkload":
        """Load and verify an artifact (version gate + fingerprint)."""
        doc = read_json_document(
            path,
            "trace workload",
            remedy="regenerate it with 'repro trace generate'",
        )
        return cls.from_artifact(doc, str(path))

    @classmethod
    def from_artifact(cls, doc: Dict[str, Any], path: str) -> "TraceWorkload":
        """The artifact document read from ``path``: version gate, then
        :meth:`from_dict` (which verifies the fingerprint)."""
        if doc.get("format_version") != 1:
            check_format_version(
                doc, "trace workload", TRACE_FORMAT_VERSION, source=path
            )
        return cls.from_dict(doc, source_path=path)

    @classmethod
    def from_dict(
        cls,
        doc: Mapping[str, Any],
        *,
        source_path: Optional[str] = None,
    ) -> "TraceWorkload":
        """Parse an artifact document, verifying its fingerprint."""
        jobs = parse_jobs(doc, stamp=True)
        if not jobs:
            raise ConfigurationError(
                "trace workload document needs a non-empty 'jobs' list"
            )
        spec = json_field(doc, "spec", dict, None)
        trace = cls(
            name=json_field(doc, "name", str, ""),
            jobs=jobs,
            spec=None if spec is None else dict(spec),
            source=json_field(doc, "source", str, "generated"),
        )
        where = source_path or "trace workload document"
        recorded = doc.get("fingerprint")
        legacy = doc.get("format_version") == 1
        actual = legacy_digest(trace._payload(1)) if legacy else trace.fingerprint
        if recorded is not None and recorded != actual:
            raise CorruptStoreError(
                f"{where}: fingerprint mismatch — the file does not match "
                "the jobs it claims to carry; regenerate it with "
                "'repro trace generate'"
            )
        count = json_field(doc, "job_count", int, None)
        if count is not None and count != len(jobs):
            raise CorruptStoreError(
                f"{where}: job_count {count} does not match the "
                f"{len(jobs)} jobs present"
            )
        return trace

    # -- conveniences --------------------------------------------------

    @property
    def vo_names(self) -> Tuple[str, ...]:
        """Distinct VO tags in first-appearance order."""
        seen: Dict[str, None] = {}
        for job in self.jobs:
            if job.vo is not None and job.vo not in seen:
                seen[job.vo] = None
        return tuple(seen)

    @property
    def horizon(self) -> float:
        """Arrival span (last arrival; the jobs are in arrival order)."""
        return self.jobs[-1].arrival

    def __len__(self) -> int:
        return len(self.jobs)
