"""The reference multi-site grid for trace-scale broker runs.

Six-figure traces need a topology with real placement freedom — the
two-site demo grids collapse every decision to a couple of candidates
and understate both the broker's work and its payoff.  The reference
grid is three repository datacenters and four heterogeneous compute
sites, fully meshed with asymmetric WAN bandwidths, giving every
dataset 3 replicas x 4 compute sites x 3 allocations = 36 candidate
placements.  ``repro broker`` runs every trace artifact and ``.gwf``
file on it, and the ``broker_trace`` benchmark workload shares it so
their numbers are comparable.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.simgrid.topology import GridTopology, SiteKind

__all__ = ["reference_grid", "REFERENCE_ALLOCATIONS"]

#: Candidate ``(data_nodes, compute_nodes)`` allocations per site pair.
REFERENCE_ALLOCATIONS: Tuple[Tuple[int, int], ...] = (
    (1, 2),
    (2, 4),
    (4, 8),
)


def reference_grid() -> GridTopology:
    """Three repositories, four heterogeneous compute sites, full mesh.

    WAN bandwidth falls off with the (repository, compute) indices so
    every path is distinct — no accidental ties for the policies to
    shrug at.
    """
    # Imported here: repro.workloads.clusters <- traces at module scope
    # would be harmless today, but every traces module keeps workload
    # imports lazy for symmetry with the broker-facing ones.
    from repro.workloads.clusters import (
        opteron_infiniband_cluster,
        pentium_myrinet_cluster,
    )

    topology = GridTopology()
    topology.add_site(
        "dc-east", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=16)
    )
    topology.add_site(
        "dc-west",
        SiteKind.REPOSITORY,
        opteron_infiniband_cluster(num_nodes=12),
    )
    topology.add_site(
        "dc-south", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=12)
    )
    topology.add_site(
        "hpc-1", SiteKind.COMPUTE, opteron_infiniband_cluster(num_nodes=32)
    )
    topology.add_site(
        "hpc-2", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=24)
    )
    topology.add_site(
        "hpc-3", SiteKind.COMPUTE, opteron_infiniband_cluster(num_nodes=16)
    )
    topology.add_site(
        "hpc-4", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=16)
    )
    repositories: List[str] = ["dc-east", "dc-west", "dc-south"]
    computes: List[str] = ["hpc-1", "hpc-2", "hpc-3", "hpc-4"]
    for i, repo in enumerate(repositories):
        for j, hpc in enumerate(computes):
            topology.connect(repo, hpc, bw=2.0e6 - 0.2e6 * i - 0.15e6 * j)
    return topology
