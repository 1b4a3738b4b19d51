"""The FREERIDE-G data server: retrieval, distribution, communication.

One data-server process runs on every on-line repository node (Section 2.1
of the paper).  Its three roles map to three methods here:

- **Data retrieval** — chunks are read from the repository disks; modelled
  by :class:`repro.simgrid.disk.RepositoryDiskSystem`, including the shared
  backplane that makes 8-node retrieval sub-linear.
- **Data distribution** — every chunk is assigned a destination compute
  node; the plan comes from :func:`repro.middleware.chunks.assign_chunks`.
- **Data communication** — each data node streams its chunks through its
  NIC at the configured repository-to-compute bandwidth.

Retrieval and communication are distinct, non-overlapping phases, matching
the additive ``T_disk + T_network`` structure the prediction framework
assumes.

The server exposes per-node phase times; the runtime ends each phase at
their maximum, after retries and degraded links have shifted them.  It
also prices the replica re-fetch used when a data node crashes
mid-communication.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.middleware.chunks import ChunkAssignment
from repro.middleware.dataset import Dataset
from repro.middleware.scheduler import RunConfig
from repro.simgrid.disk import RepositoryDiskSystem
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.network import LinkModel
from repro.simgrid.trace import left_sum

__all__ = ["DataServer"]


class DataServer:
    """Timing model for the repository side of one run."""

    def __init__(
        self, config: RunConfig, dataset: Dataset, assignment: ChunkAssignment
    ) -> None:
        if assignment.num_data_nodes == 0:
            raise ConfigurationError(
                "chunk assignment has no data nodes; a data server needs "
                "at least one repository node to serve from"
            )
        self.config = config
        self.dataset = dataset
        self.assignment = assignment
        self._disks = RepositoryDiskSystem(
            config.storage_cluster, config.data_nodes
        )
        nic = config.storage_cluster.node.nic
        self._link = LinkModel(
            latency_s=nic.latency_s,
            bw=min(nic.bw, config.bandwidth),
        )
        #: Chunk byte sizes grouped by owning data node.
        self.per_node_chunk_sizes: List[List[float]] = [
            [dataset.chunk_sizes[c] for c in chunks]
            for chunks in assignment.data_node_chunks
        ]

    def node_retrieval_times(self) -> List[float]:
        """Per-data-node batch read times (the phase ends at their max)."""
        return [
            self._disks.node_read_time(i, sizes)
            for i, sizes in enumerate(self.per_node_chunk_sizes)
        ]

    def node_stream_times(
        self, link_factors: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Per-data-node communication times, optionally degraded.

        Each data node's NIC serializes its own chunk stream; the phase
        completes when the slowest data node finishes.  Compute nodes never
        receive from more than one data node (contiguous-block mapping), so
        there is no receive-side convergence bottleneck.

        ``link_factors[i]`` multiplies node ``i``'s stream time (a factor
        of 2 models a link at half bandwidth); ``None`` means all links
        are healthy.
        """
        sizes_per_node = self.per_node_chunk_sizes
        if link_factors is None:
            return [self._link.stream_time(sizes) for sizes in sizes_per_node]
        if len(link_factors) != len(sizes_per_node):
            raise ConfigurationError(
                f"expected {len(sizes_per_node)} link factors, "
                f"got {len(link_factors)}"
            )
        return [
            self._link.stream_time(sizes) * factor
            for sizes, factor in zip(sizes_per_node, link_factors)
        ]

    def chunk_read_time(self, chunk: int) -> float:
        """Seconds one repository disk takes to read chunk ``chunk``."""
        bw = self._disks.per_node_effective_bw
        spec = self.config.storage_cluster.node.disk
        return spec.read_time(self.dataset.chunk_sizes[chunk], effective_bw=bw)

    def refetch_cost(
        self, chunks: Sequence[int], link_factor: float = 1.0
    ) -> Tuple[float, float]:
        """(disk, network) cost of re-serving ``chunks`` from a replica.

        Used for data-node failover (unshipped tail after a crash) and
        compute-node recovery (re-feeding a migrated role's chunks).  The
        replica pays a fresh server startup, reads the chunks on one node
        (uncontended: its siblings are idle for this batch), and streams
        them over a repository-to-compute link at the run's bandwidth.
        """
        if not chunks:
            return 0.0, 0.0
        if link_factor < 1.0:
            raise ConfigurationError("link degradation factor must be >= 1")
        sizes = [self.dataset.chunk_sizes[c] for c in chunks]
        cluster = self.config.storage_cluster
        spec = cluster.node.disk
        disk = cluster.node_startup_s + left_sum(
            spec.read_time(size, effective_bw=spec.stream_bw) for size in sizes
        )
        network = self._link.stream_time(sizes) * link_factor
        return disk, network

    def effective_disk_bw(self) -> float:
        """Backplane-contended per-node disk bandwidth (for diagnostics)."""
        return self._disks.per_node_effective_bw
