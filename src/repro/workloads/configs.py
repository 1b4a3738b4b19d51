"""The paper's (data nodes, compute nodes) configuration grid.

Section 5: "the number of data nodes is always kept smaller [or equal]
th[a]n the number of compute nodes ... Number of data nodes is varied
between 1 and 8, and the number of compute nodes is varied between 1 and
16."  The resulting 14 configurations (1-1 ... 8-16) are the x-axis of
Figures 2-13.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.workloads.clusters import DEFAULT_BANDWIDTH, pentium_myrinet_cluster

__all__ = ["PAPER_CONFIG_GRID", "config_grid", "make_run_config"]


def config_grid(
    data_node_counts: Sequence[int] = (1, 2, 4, 8),
    max_compute_nodes: int = 16,
) -> List[Tuple[int, int]]:
    """All (n, c) pairs with c a power-of-two multiple, n <= c <= max."""
    grid: List[Tuple[int, int]] = []
    for n in data_node_counts:
        if n > max_compute_nodes:
            raise ConfigurationError(
                f"data node count {n} exceeds max compute nodes "
                f"{max_compute_nodes}"
            )
        c = n
        while c <= max_compute_nodes:
            grid.append((n, c))
            c *= 2
    return grid


#: The 14 configurations of the paper's figures.
PAPER_CONFIG_GRID: List[Tuple[int, int]] = config_grid()

#: The default cluster, built once: a ``ClusterSpec`` is frozen, and a
#: campaign builds hundreds of configurations on it.
_PENTIUM_MYRINET = pentium_myrinet_cluster()


def make_run_config(
    data_nodes: int,
    compute_nodes: int,
    storage_cluster: ClusterSpec | None = None,
    compute_cluster: ClusterSpec | None = None,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> RunConfig:
    """A :class:`~repro.middleware.scheduler.RunConfig` with paper defaults.

    Both clusters default to the Pentium/Myrinet testbed, matching the
    paper's within-cluster experiments.
    """
    storage = storage_cluster or _PENTIUM_MYRINET
    compute = compute_cluster or storage
    return RunConfig(
        storage_cluster=storage,
        compute_cluster=compute,
        data_nodes=data_nodes,
        compute_nodes=compute_nodes,
        bandwidth=bandwidth,
    )
