"""Broker jobs and the JSON workload documents ``repro broker`` consumes.

A *broker workload* describes one experiment: the grid (sites, links),
the candidate node allocations, where each dataset is replicated, and
the job stream — either an explicit list of jobs or a seeded
:class:`~repro.workloads.traces.generate.StreamSpec` the broker expands
deterministically.  Example document::

    {
      "name": "demo",
      "allocations": [[1, 2], [2, 4]],
      "sites": [
        {"name": "repo-a", "kind": "repository",
         "cluster": "pentium-myrinet", "nodes": 16},
        {"name": "hpc-1", "kind": "compute",
         "cluster": "opteron-infiniband", "nodes": 16}
      ],
      "links": [{"a": "repo-a", "b": "hpc-1", "bw": 2.0e6}],
      "replicas": {"knn@350 MB": ["repo-a"]},
      "jobs": [
        {"id": "j0", "workload": "knn", "size": "350 MB",
         "arrival": 0.0, "deadline": 3.0, "priority": 1}
      ]
    }

``replicas`` is optional (default: every repository site holds every
dataset), as is ``priority`` (default 0; higher runs first) and
``deadline`` (default none).
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.durable import json_field, json_value, read_json_document
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import CLUSTERS

__all__ = [
    "BrokerJob",
    "BrokerWorkloadDoc",
    "parse_jobs",
    "parse_workload_document",
    "load_workload_document",
    "require_unique_ids",
    "sorted_jobs",
]


@dataclass(frozen=True)
class BrokerJob:
    """One job of the stream submitted to the broker.

    ``size`` is a dataset-size label of the workload (``None`` = the
    workload's default size).  ``deadline`` is an absolute simulated
    time; ``priority`` orders the wait queue (higher first, FIFO within
    a priority level).

    ``vo`` tags the submitting virtual organisation (trace workloads
    carry real per-VO mixes; ``None`` = untagged) and ``arrival_index``
    is the job's zero-based position in arrival order within its trace
    (``None`` for hand-written workloads).  Both ride along so
    six-figure-run reports can aggregate — e.g. rejections per VO —
    without a join back to the trace artifact.
    """

    job_id: str
    workload: str
    size: Optional[str] = None
    arrival: float = 0.0
    deadline: Optional[float] = None
    priority: int = 0
    vo: Optional[str] = None
    arrival_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("jobs need a non-empty id")
        # Written so that NaN, which passes every ``<`` guard, fails.
        if not 0 <= self.arrival < math.inf:
            raise ConfigurationError(
                f"job '{self.job_id}': arrival time must be >= 0 and finite"
            )
        if self.deadline is not None and not (
            self.arrival < self.deadline < math.inf
        ):
            raise ConfigurationError(
                f"job '{self.job_id}': deadline must be after arrival "
                "and finite"
            )

    @property
    def dataset_key(self) -> str:
        """The ``workload@size`` key used by replica placements."""
        return f"{self.workload}@{self.size}" if self.size else self.workload


@dataclass
class BrokerWorkloadDoc:
    """A parsed broker workload document."""

    name: str
    allocations: List[Tuple[int, int]]
    sites: List[Dict[str, Any]]
    links: List[Dict[str, Any]]
    replicas: Dict[str, List[str]] = field(default_factory=dict)
    jobs: Tuple[BrokerJob, ...] = ()
    stream: Optional[Dict[str, Any]] = None

    def build_topology(self) -> GridTopology:
        """Materialize the document's grid as a :class:`GridTopology`."""
        topology = GridTopology()
        for site in self.sites:
            factory = CLUSTERS.get(site["cluster"])
            if factory is None:
                raise ConfigurationError(
                    f"unknown cluster '{site['cluster']}' for site "
                    f"'{site['name']}'; known: {sorted(CLUSTERS)}"
                )
            topology.add_site(
                site["name"],
                SiteKind(site["kind"]),
                factory(num_nodes=site["nodes"]),
            )
        for link in self.links:
            topology.connect(
                link["a"], link["b"], bw=link["bw"], latency_s=link["latency_s"]
            )
        return topology


#: A job's optional fields and their JSON kinds.
_JOB_FIELDS = (
    ("size", str), ("arrival", float), ("deadline", float), ("priority", int),
    ("vo", str), ("arrival_index", int),
)


def _parse_job(entry: Mapping[str, Any], index: Optional[int]) -> BrokerJob:
    job_id = json_field(entry, "id", str, where="job: ")
    where = f"job '{job_id}': "
    # Every optional field of a job may be null, which means absent.
    fields = {
        key: json_field(entry, key, kind, None, where=where)
        for key, kind in _JOB_FIELDS
    }
    arrival, priority = fields["arrival"], fields["priority"]
    return BrokerJob(
        job_id=job_id,
        workload=json_field(entry, "workload", str, where=where),
        size=fields["size"],
        arrival=0.0 if arrival is None else arrival,
        deadline=fields["deadline"],
        priority=0 if priority is None else priority,
        vo=fields["vo"],
        arrival_index=fields["arrival_index"] if index is None else index,
    )


def parse_jobs(doc: Mapping[str, Any], stamp: bool = False) -> Tuple[BrokerJob, ...]:
    """The document's ``jobs`` list, strictly; ``stamp`` sets each job's
    ``arrival_index`` to its position (a list already in arrival order)."""
    entries = enumerate(json_field(doc, "jobs", list, [], of=dict))
    return tuple(_parse_job(entry, i if stamp else None) for i, entry in entries)


def parse_workload_document(doc: Mapping[str, Any]) -> BrokerWorkloadDoc:
    """Validate and parse a broker workload dictionary."""
    doc = json_value("broker workload", doc, dict)
    sites: List[Dict[str, Any]] = []
    for index, entry in enumerate(json_field(doc, "sites", list, [], of=dict)):
        name = json_field(entry, "name", str, where=f"sites[{index}]: ")
        where = f"site '{name}': "
        kind = json_field(entry, "kind", str, where=where)
        try:
            SiteKind(kind)
        except ValueError as exc:
            raise ConfigurationError(f"{where}unknown kind '{kind}'") from exc
        sites.append(
            {
                "name": name,
                "kind": kind,
                "cluster": json_field(entry, "cluster", str, where=where),
                "nodes": json_field(entry, "nodes", int, 8, where=where),
            }
        )
    if not sites:
        raise ConfigurationError("broker workload needs a 'sites' list")

    allocations: List[Tuple[int, int]] = []
    pairs = json_field(doc, "allocations", list, [[1, 2], [2, 4]], of=list)
    for index, pair in enumerate(pairs):
        name = f"allocations[{index}]"
        if len(pair) != 2:
            raise ConfigurationError(
                f"'{name}' must be a [data_nodes, compute_nodes] pair, "
                f"got {pair!r:.40}"
            )
        data_nodes, compute_nodes = json_value(name, pair, list, of=int)
        allocations.append((data_nodes, compute_nodes))

    links: List[Dict[str, Any]] = []
    for index, link in enumerate(json_field(doc, "links", list, [], of=dict)):
        a, b = (json_field(link, key, str, where=f"links[{index}]: ") for key in "ab")
        where = f"link {a}~{b}: "
        links.append(
            {
                "a": a,
                "b": b,
                "bw": json_field(link, "bw", float, where=where),
                "latency_s": json_field(link, "latency_s", float, 0.0, where=where),
            }
        )

    replicas = {
        key: json_value(f"replicas['{key}']", holders, list, of=str)
        for key, holders in json_field(doc, "replicas", dict, {}).items()
    }

    jobs = parse_jobs(doc)
    require_unique_ids(jobs)

    stream = json_field(doc, "stream", dict, None)
    if not jobs and stream is None:
        raise ConfigurationError(
            "broker workload needs either 'jobs' or a 'stream' spec"
        )
    if jobs and stream is not None:
        raise ConfigurationError(
            "give either explicit 'jobs' or a 'stream' spec, not both"
        )

    return BrokerWorkloadDoc(
        name=json_field(doc, "name", str, "broker-workload"),
        allocations=allocations,
        sites=sites,
        links=links,
        replicas=replicas,
        jobs=jobs,
        stream=None if stream is None else dict(stream),
    )


def load_workload_document(path: str | pathlib.Path) -> BrokerWorkloadDoc:
    """Load and parse a broker workload JSON file."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(f"no broker workload file at '{path}'")
    doc = read_json_document(
        path,
        "broker workload",
        remedy="check the path or regenerate the workload JSON "
        "(see README, 'Prediction-guided brokering')",
    )
    return parse_workload_document(doc)


def require_unique_ids(jobs: Sequence[BrokerJob]) -> None:
    """Refuse a stream in which two jobs share an id.

    The broker keys a job's resume state, retry budget and reservation
    windows by its id, so two jobs under one id would share them.
    """
    seen: set[str] = set()
    for job in jobs:
        if job.job_id in seen:
            raise ConfigurationError(f"duplicate job id '{job.job_id}'")
        seen.add(job.job_id)


def sorted_jobs(jobs: Sequence[BrokerJob]) -> List[BrokerJob]:
    """Arrival order with deterministic tie-breaking (id)."""
    return sorted(jobs, key=lambda j: (j.arrival, j.job_id))
