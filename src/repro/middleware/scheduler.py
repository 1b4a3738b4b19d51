"""Run configurations: the resource mapping a job executes under.

A configuration pairs a storage cluster (hosting ``n`` data nodes of the
repository) with a compute cluster (hosting ``c`` compute nodes) and the
bandwidth available between them.  The paper's constraint ``M >= N``
(compute nodes at least data nodes, Section 2.1) is validated here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec

__all__ = ["GatherTopology", "RunConfig"]


class GatherTopology(str, enum.Enum):
    """How reduction objects reach the master.

    ``SERIAL`` is FREERIDE-G's scheme — the master receives ``c - 1``
    objects one after another (the serialized component the paper's
    Section 3.3.1 models).  ``TREE`` is the classic binomial-tree
    alternative provided for ablation: ``ceil(log2 c)`` rounds of parallel
    pairwise sends with merging along the way.
    """

    SERIAL = "serial"
    TREE = "tree"


@dataclass(frozen=True)
class RunConfig:
    """Resources for one execution (or one prediction target).

    Attributes
    ----------
    storage_cluster:
        Cluster hosting the data repository.
    compute_cluster:
        Cluster hosting the processing nodes (may be the same object).
    data_nodes:
        ``n`` — repository nodes the dataset is divided across.
    compute_nodes:
        ``c`` — processing nodes (``c >= n``).
    bandwidth:
        ``b`` — bytes/s available to *each data node* for repository-to-
        compute data movement.  Varied synthetically in the paper's
        Section 5.3 experiments.
    processes_per_node:
        SMP width used on each compute node (cluster-of-SMPs execution).
        Threads on one node share its memory bus and merge their reduction
        objects in shared memory, so only one object per *node* is
        communicated in the gather.
    remote_cache_bandwidth:
        When set, multi-pass applications cache chunks at a *non-local*
        site instead of on the compute nodes' local disks — the paper's
        "Finding Non-local Caching Resources" middleware role (Section
        2.1), used "if sufficient storage is not available at the site
        where computations are performed".  The value is the bytes/s each
        compute node gets to the caching site; ``None`` means local-disk
        caching.
    """

    storage_cluster: ClusterSpec
    compute_cluster: ClusterSpec
    data_nodes: int
    compute_nodes: int
    bandwidth: float
    processes_per_node: int = 1
    remote_cache_bandwidth: float | None = None
    gather_topology: GatherTopology = GatherTopology.SERIAL

    def __post_init__(self) -> None:
        if self.data_nodes <= 0 or self.compute_nodes <= 0:
            raise ConfigurationError("node counts must be positive")
        if self.compute_nodes < self.data_nodes:
            raise ConfigurationError(
                f"FREERIDE-G requires compute nodes >= data nodes "
                f"(got {self.compute_nodes} < {self.data_nodes})"
            )
        if not 0 < self.bandwidth < math.inf:  # also false for NaN
            raise ConfigurationError("bandwidth must be positive and finite")
        self.storage_cluster.require_nodes(self.data_nodes)
        self.compute_cluster.require_nodes(self.compute_nodes)
        # Validates 1 <= processes_per_node <= smp_width.
        self.compute_cluster.smp_slowdown(self.processes_per_node)
        remote = self.remote_cache_bandwidth
        if remote is not None and not 0 < remote < math.inf:
            raise ConfigurationError(
                "remote cache bandwidth must be positive and finite"
            )

    @property
    def compute_slots(self) -> int:
        """Total parallel reduction slots (nodes x processes per node)."""
        return self.compute_nodes * self.processes_per_node

    @property
    def label(self) -> str:
        """The paper's 'n-c' configuration notation (e.g. ``'8-16'``)."""
        return f"{self.data_nodes}-{self.compute_nodes}"

    @property
    def homogeneous(self) -> bool:
        """True when storage and compute share one cluster type."""
        return self.storage_cluster.name == self.compute_cluster.name

    def with_nodes(self, data_nodes: int, compute_nodes: int) -> "RunConfig":
        """A copy with a different node allocation."""
        return replace(self, data_nodes=data_nodes, compute_nodes=compute_nodes)

    def with_bandwidth(self, bandwidth: float) -> "RunConfig":
        """A copy with a different repository-to-compute bandwidth."""
        return replace(self, bandwidth=bandwidth)

    def with_processes_per_node(self, processes_per_node: int) -> "RunConfig":
        """A copy with a different SMP width."""
        return replace(self, processes_per_node=processes_per_node)

    def with_remote_cache(self, bandwidth: float | None) -> "RunConfig":
        """A copy caching at a non-local site reachable at ``bandwidth``."""
        return replace(self, remote_cache_bandwidth=bandwidth)

    def with_gather_topology(self, topology: GatherTopology) -> "RunConfig":
        """A copy gathering reduction objects over a different topology."""
        return replace(self, gather_topology=GatherTopology(topology))

    def with_clusters(
        self, storage_cluster: ClusterSpec, compute_cluster: ClusterSpec
    ) -> "RunConfig":
        """A copy targeting different hardware."""
        return replace(
            self,
            storage_cluster=storage_cluster,
            compute_cluster=compute_cluster,
        )
