"""A batch is a broker run in which every job arrives at time zero.

The batch below is seven mixed jobs on a capacity-limited grid: one
16-node repository, a 16-node compute site behind a 2 MB/s link and an
8-node one behind a 0.5 MB/s link.  ``min-completion`` places it by
predicted cost; the pinned tuples and metrics are what that policy
produces, bit for bit.  ``round-robin`` places the same batch without
looking at predictions, and pays for it in turnaround: the claim the
paper's resource-allocation motivation makes.
"""

from __future__ import annotations

import pytest

from repro.broker import BrokerJob, GridBroker
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import pentium_myrinet_cluster

SMALL_SIZE = {"knn": "350 MB", "vortex": "710 MB", "defect": "130 MB",
              "kmeans": "350 MB"}
JOB_MIX = ["knn", "vortex", "defect", "kmeans", "knn", "defect", "vortex"]
ALLOCATIONS = [(1, 2), (2, 4), (4, 8)]

#: (job, replica site, compute site, data nodes, compute nodes, start, end)
MIN_COMPLETION = [
    ("job-0-knn", "repo", "hpc-a", 4, 8, 0.0, 0.10750076),
    ("job-1-vortex", "repo", "hpc-a", 4, 8, 0.0, 0.2888284162911701),
    ("job-2-defect", "repo", "hpc-b", 4, 8, 0.0, 0.098589702),
    ("job-3-kmeans", "repo", "hpc-b", 4, 8, 0.098589702, 0.3807814486666668),
    ("job-4-knn", "repo", "hpc-a", 4, 8, 0.10750076, 0.21500152),
    ("job-5-defect", "repo", "hpc-a", 4, 8, 0.21500152, 0.258295222),
    ("job-6-vortex", "repo", "hpc-a", 4, 8, 0.258295222, 0.5471236382911702),
]


def batch_grid() -> GridTopology:
    cluster = pentium_myrinet_cluster(num_nodes=16)
    topology = GridTopology()
    topology.add_site("repo", SiteKind.REPOSITORY, cluster)
    topology.add_site("hpc-a", SiteKind.COMPUTE, cluster)
    topology.add_site(
        "hpc-b", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=8)
    )
    topology.connect("repo", "hpc-a", bw=2.0e6)
    topology.connect("repo", "hpc-b", bw=5.0e5)
    return topology


BATCH = [
    BrokerJob(job_id=f"job-{i}-{name}", workload=name, size=SMALL_SIZE[name])
    for i, name in enumerate(JOB_MIX)
]


def placement_tuples(run):
    return [
        (p.job_id, p.replica_site, p.compute_site, p.data_nodes,
         p.compute_nodes, p.start, p.end)
        for p in sorted(run.placements, key=lambda p: p.job_id)
    ]


def mean_turnaround(run) -> float:
    return sum(p.end - p.arrival for p in run.placements) / len(run.placements)


@pytest.fixture(scope="module")
def broker() -> GridBroker:
    return GridBroker(batch_grid(), ALLOCATIONS)


def test_min_completion_places_the_batch_as_pinned(broker):
    run = broker.run(BATCH, "min-completion")
    assert run.rejections == ()
    assert placement_tuples(run) == MIN_COMPLETION
    assert run.makespan == 0.5471236382911702
    assert mean_turnaround(run) == 0.27087438674985814


def test_predictions_beat_round_robin_on_turnaround(broker):
    best = broker.run(BATCH, "min-completion")
    blind = broker.run(BATCH, "round-robin")
    assert len(blind.placements) == len(BATCH)
    assert mean_turnaround(best) < mean_turnaround(blind)
    assert best.makespan < blind.makespan


def test_empty_batch_rejected(broker):
    with pytest.raises(ConfigurationError, match="no jobs to broker"):
        broker.run([], "min-completion")

