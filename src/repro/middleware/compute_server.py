"""The FREERIDE-G compute server: communication, computation, caching.

One compute-server process runs on each processing node (Section 2.1).
The runtime asks this class to price each node's share of a pass:

- **Receive handling** — per-chunk receive/demultiplex work during the
  initial (network-fed) pass.  It is on the critical path only to the
  degree the incoming stream saturates the node, so it is scaled by
  ``data_nodes / compute_nodes``: with more compute sinks than data
  sources, inter-arrival gaps hide the handling cost.  The prediction
  framework does not model this term — it is the main reason
  configurations with equal data and compute node counts are the hardest
  to predict (Figures 7-10 of the paper).
- **Computation** — the per-chunk kernel time from charged operation
  counts, plus a fixed per-chunk dispatch overhead (API upcall, buffer
  management).
- **Caching** — writes on the first pass and reads on later passes, priced
  by :class:`repro.middleware.caching.CacheModel`.
"""

from __future__ import annotations

from typing import Sequence

from repro.middleware.caching import CacheModel
from repro.middleware.scheduler import RunConfig
from repro.simgrid.network import LinkModel
from repro.simgrid.trace import left_sum

__all__ = ["ComputeServer"]


class ComputeServer:
    """Timing model for one compute node."""

    __slots__ = (
        "config",
        "node_index",
        "cluster",
        "cache",
        "_remote_cache_link",
    )

    def __init__(self, config: RunConfig, node_index: int) -> None:
        self.config = config
        self.node_index = node_index
        self.cluster = config.compute_cluster
        self.cache = CacheModel(self.cluster.effective_cache_disk)
        if config.remote_cache_bandwidth is not None:
            self._remote_cache_link = LinkModel(
                latency_s=self.cluster.node.nic.latency_s,
                bw=min(self.cluster.node.nic.bw, config.remote_cache_bandwidth),
            )
        else:
            self._remote_cache_link = None

    def receive_overhead(self, num_chunks: int) -> float:
        """Critical-path share of per-chunk receive handling (pass 0)."""
        saturation = self.config.data_nodes / self.config.compute_nodes
        return (
            num_chunks * self.cluster.chunk_receive_overhead_s * saturation
        )

    def compute_time(
        self, chunk_times: Sequence[float], thread_chunks: Sequence[Sequence[int]]
    ) -> float:
        """Kernel time with one chunk list per process on this node.

        A thread costs the left fold of its ``chunk_times`` (one-core
        seconds per chunk) in hand-out order, slowed by memory-bus
        contention, plus a dispatch overhead per chunk; the node ends with
        its slowest thread.  Pass startup, paid once per node, makes node
        compute time affine (not proportional) in chunk count — a
        non-ideality the linear prediction model does not see.
        """
        slowdown = self.cluster.smp_slowdown(len(thread_chunks))
        dispatch_s = self.cluster.chunk_dispatch_overhead_s
        time_of = chunk_times.__getitem__
        per_thread = [
            left_sum(map(time_of, chunks)) * slowdown + len(chunks) * dispatch_s
            for chunks in thread_chunks
        ]
        return self.cluster.compute_pass_startup_s + max(per_thread)

    def cache_write_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to persist received chunks for later passes.

        Local-disk caching by default; when the run uses a non-local
        caching site, chunks are shipped there over the network instead.
        """
        if self._remote_cache_link is not None:
            return self._remote_cache_link.stream_time(chunk_sizes)
        return self.cache.write_time(chunk_sizes)

    def cache_read_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to restore cached chunks on a later pass."""
        if self._remote_cache_link is not None:
            return self._remote_cache_link.stream_time(chunk_sizes)
        return self.cache.read_time(chunk_sizes)
