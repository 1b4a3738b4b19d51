"""Disk service models for data repositories and compute-node caches.

A repository hosting a dataset across ``n`` data nodes retrieves chunks in
parallel, but all data nodes share a storage backplane of finite aggregate
bandwidth.  Per the paper's observation (Section 5.2: defect detection
"scales linearly when number of data nodes is 2 or 4, but only demonstrates
a sub-linear speedup once the number of data nodes is increased beyond
that"), the per-node effective bandwidth is
``min(disk_stream_bw, backplane_bw / n)``.

The prediction framework (which assumes retrieval time is inversely
proportional to ``n``) does *not* know about the backplane — that gap is one
of the genuine sources of prediction error this reproduction measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec, DiskSpec

__all__ = ["DiskModel", "RepositoryDiskSystem"]


@dataclass
class DiskModel:
    """Service-time model for a single disk under a fixed contention level."""

    spec: DiskSpec
    effective_bw: float

    def __post_init__(self) -> None:
        if self.effective_bw <= 0:
            raise ConfigurationError("effective disk bandwidth must be > 0")

    def chunk_read_time(self, nbytes: float) -> float:
        """Seconds to read one chunk (seek + contended stream)."""
        return self.spec.read_time(nbytes, effective_bw=self.effective_bw)

    @hot
    def batch_read_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to read a batch of chunks back-to-back on this disk.

        Inlines :meth:`DiskSpec.read_time` with the contended bandwidth
        and seek latency hoisted out of the loop (REP303 burn-down); the
        per-chunk operands and addition order are unchanged, so the sum
        is bit-identical to the per-call version.
        """
        spec = self.spec
        bw = min(spec.stream_bw, self.effective_bw)
        seek = spec.seek_s
        if bw <= 0:
            raise ConfigurationError("effective disk bandwidth must be > 0")
        total = 0.0
        for size in chunk_sizes:
            if size < 0:
                raise ConfigurationError(
                    "cannot read a negative number of bytes"
                )
            total += seek + size / bw
        return total


class RepositoryDiskSystem:
    """The ``n`` parallel data-node disks of one repository.

    Retrieval of a chunk list partitioned over data nodes proceeds in
    parallel across nodes; each node's disk reads its batch back-to-back
    (:meth:`node_read_time`).  The phase completes when the slowest node
    finishes.
    """

    def __init__(self, cluster: ClusterSpec, num_data_nodes: int) -> None:
        cluster.require_nodes(num_data_nodes)
        self.cluster = cluster
        self.num_data_nodes = num_data_nodes
        bw = cluster.effective_disk_bw(num_data_nodes)
        self._models = [
            DiskModel(cluster.node.disk, bw) for _ in range(num_data_nodes)
        ]

    @property
    def per_node_effective_bw(self) -> float:
        """Contended per-node streaming bandwidth."""
        return self._models[0].effective_bw

    def node_read_time(self, node: int, chunk_sizes: Sequence[float]) -> float:
        """Total read time for the chunk batch assigned to one data node."""
        if not 0 <= node < self.num_data_nodes:
            raise ConfigurationError(
                f"data node index {node} out of range "
                f"(0..{self.num_data_nodes - 1})"
            )
        if not chunk_sizes:
            return 0.0
        return self.cluster.node_startup_s + self._models[node].batch_read_time(
            chunk_sizes
        )
