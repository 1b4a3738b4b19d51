"""Dynamic resource allocation: the end-goal the paper motivates.

Section 1: "A major goal of grid computing is enabling applications to
identify and allocate resources dynamically. ... for a middleware to
perform resource allocation, prediction models are needed, which can
determine how long an application will take for completion on a
particular platform or configuration."

This module closes that loop: a :class:`GridScheduler` receives a batch
of jobs (workload + dataset), tracks per-site node capacity over time, and
places each job on the feasible (replica, compute site, allocation) pair
its policy chooses.  The *predicted-best* policy uses the paper's
prediction framework; *random* and *max-parallelism* are the baselines a
prediction-free middleware would be stuck with.  Placed jobs execute for
real on the simulated middleware, so schedule quality (makespan, mean
turnaround) is measured, not assumed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.models import PredictionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.dataset import Dataset
from repro.middleware.kernels import KernelTrace
from repro.middleware.replica import ReplicaCatalog
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError, TopologyError
from repro.simgrid.topology import GridTopology, SiteKind

__all__ = [
    "Job",
    "Placement",
    "Schedule",
    "GridScheduler",
    "predicted_best_policy",
    "random_policy",
    "max_parallelism_policy",
]


@dataclass(frozen=True)
class Job:
    """One unit of work submitted to the grid."""

    job_id: str
    workload: str
    dataset: Dataset
    app_factory: Callable[[], object]
    profile: Profile

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("jobs need a non-empty id")


@dataclass(frozen=True)
class Candidate:
    """A feasible placement option for a job at some instant."""

    replica_site: str
    compute_site: str
    data_nodes: int
    compute_nodes: int
    bandwidth: float
    predicted: float


@dataclass(frozen=True)
class Placement:
    """Where and when a job ran, and how long it actually took."""

    job_id: str
    replica_site: str
    compute_site: str
    data_nodes: int
    compute_nodes: int
    start: float
    end: float
    predicted: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        return (
            f"{self.job_id}: {self.replica_site}[{self.data_nodes}] -> "
            f"{self.compute_site}[{self.compute_nodes}]"
        )


@dataclass
class Schedule:
    """A completed schedule with its quality metrics."""

    placements: List[Placement] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Completion time of the last job."""
        if not self.placements:
            raise ConfigurationError("empty schedule has no makespan")
        return max(p.end for p in self.placements)

    @property
    def mean_turnaround(self) -> float:
        """Average completion time over jobs (all submitted at t=0)."""
        if not self.placements:
            raise ConfigurationError("empty schedule has no turnaround")
        return sum(p.end for p in self.placements) / len(self.placements)

    def placement_of(self, job_id: str) -> Placement:
        for placement in self.placements:
            if placement.job_id == job_id:
                return placement
        raise ConfigurationError(f"no placement for job '{job_id}'")


Policy = Callable[[Job, Sequence[Candidate]], Candidate]


def predicted_best_policy(job: Job, candidates: Sequence[Candidate]) -> Candidate:
    """Pick the candidate with minimum predicted execution time."""
    return min(candidates, key=lambda c: (c.predicted, c.compute_site))


def random_policy(seed: int = 0) -> Policy:
    """A prediction-free baseline: pick a feasible candidate uniformly."""
    rng = np.random.default_rng(seed)

    def choose(job: Job, candidates: Sequence[Candidate]) -> Candidate:
        return candidates[int(rng.integers(len(candidates)))]

    return choose


def max_parallelism_policy(job: Job, candidates: Sequence[Candidate]) -> Candidate:
    """A prediction-free heuristic: grab the most compute nodes available.

    Ties break on data nodes, then site name — deliberately *not* on the
    predicted time, which a prediction-free middleware would not have.
    """
    return max(
        candidates,
        key=lambda c: (
            c.compute_nodes,
            c.data_nodes,
            c.compute_site,
            c.replica_site,
        ),
    )


class GridScheduler:
    """Places a batch of jobs on a capacity-constrained grid.

    Jobs are considered in submission order; when no candidate fits the
    currently free capacity, time advances to the next job completion.
    Compute-site node reservations are exclusive; repository (data-node)
    capacity is tracked the same way.
    """

    def __init__(
        self,
        topology: GridTopology,
        catalog: ReplicaCatalog,
        model: PredictionModel,
        allocations: Sequence[Tuple[int, int]],
    ) -> None:
        if not allocations:
            raise ConfigurationError("need at least one candidate allocation")
        self.topology = topology
        self.catalog = catalog
        self.model = model
        self.allocations = list(allocations)
        #: Same factory over the same dataset means the same chunk
        #: kernels, whichever placement a policy picks.
        self._kernels: Dict[
            Tuple[Callable[[], object], Dataset], KernelTrace
        ] = {}

    # ------------------------------------------------------------------

    def schedule(self, jobs: Sequence[Job], policy: Policy) -> Schedule:
        """Place and execute every job; returns the completed schedule."""
        if not jobs:
            raise ConfigurationError("no jobs to schedule")

        free: Dict[str, int] = {
            site.name: site.cluster.num_nodes for site in self.topology.sites()
        }
        releases: List[Tuple[float, str, int]] = []  # (time, site, nodes)
        now = 0.0
        schedule = Schedule()

        for job in jobs:
            while True:
                candidates = self._feasible(job, free)
                if candidates:
                    break
                if not releases:
                    raise ConfigurationError(
                        f"job '{job.job_id}' can never be placed: no "
                        "allocation fits the grid"
                    )
                now, site, nodes = heapq.heappop(releases)
                free[site] += nodes

            choice = policy(job, candidates)
            duration = self._execute(job, choice)

            free[choice.compute_site] -= choice.compute_nodes
            free[choice.replica_site] -= choice.data_nodes
            heapq.heappush(
                releases,
                (now + duration, choice.compute_site, choice.compute_nodes),
            )
            heapq.heappush(
                releases,
                (now + duration, choice.replica_site, choice.data_nodes),
            )
            schedule.placements.append(
                Placement(
                    job_id=job.job_id,
                    replica_site=choice.replica_site,
                    compute_site=choice.compute_site,
                    data_nodes=choice.data_nodes,
                    compute_nodes=choice.compute_nodes,
                    start=now,
                    end=now + duration,
                    predicted=choice.predicted,
                )
            )
        return schedule

    # ------------------------------------------------------------------

    def _feasible(
        self, job: Job, free: Dict[str, int]
    ) -> List[Candidate]:
        candidates: List[Candidate] = []
        for replica in self.catalog.replicas_of(job.dataset.name):
            storage_cluster = self.topology.site(replica.site).cluster
            for site in self.topology.sites(SiteKind.COMPUTE):
                try:
                    bandwidth = self.topology.bandwidth_between(
                        replica.site, site.name
                    )
                except TopologyError:
                    continue
                for data_nodes, compute_nodes in self.allocations:
                    if data_nodes > free[replica.site]:
                        continue
                    if compute_nodes > free[site.name]:
                        continue
                    try:
                        config = RunConfig(
                            storage_cluster=storage_cluster,
                            compute_cluster=site.cluster,
                            data_nodes=data_nodes,
                            compute_nodes=compute_nodes,
                            bandwidth=bandwidth,
                        )
                    except ConfigurationError:
                        continue
                    target = PredictionTarget(
                        config=config, dataset_bytes=job.dataset.nbytes
                    )
                    predicted = self.model.predict(job.profile, target).total
                    candidates.append(
                        Candidate(
                            replica_site=replica.site,
                            compute_site=site.name,
                            data_nodes=data_nodes,
                            compute_nodes=compute_nodes,
                            bandwidth=bandwidth,
                            predicted=predicted,
                        )
                    )
        return candidates

    def _execute(self, job: Job, choice: Candidate) -> float:
        config = RunConfig(
            storage_cluster=self.topology.site(choice.replica_site).cluster,
            compute_cluster=self.topology.site(choice.compute_site).cluster,
            data_nodes=choice.data_nodes,
            compute_nodes=choice.compute_nodes,
            bandwidth=choice.bandwidth,
        )
        kernels = self._kernels.setdefault(
            (job.app_factory, job.dataset), KernelTrace()
        )
        result = FreerideGRuntime(config, kernels=kernels).execute(
            job.app_factory(), job.dataset
        )
        return result.breakdown.total
