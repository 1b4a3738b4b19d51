"""Pipelined execution: what if retrieval, shipping and processing overlap?

The paper's model — and FREERIDE-G's measured breakdowns — treat
``T_disk``, ``T_network`` and ``T_compute`` as non-overlapping phases.  A
more aggressive middleware could *stream* chunks: while chunk ``i`` is
being processed, chunk ``i+1`` is in flight and chunk ``i+2`` is being
read.  :class:`PipelinedRuntime` executes exactly that schedule on the
simulator's FIFO resources (one disk and one NIC per data node, one CPU
per compute node) and reports the resulting makespan.

This is an *ablation* runtime: it quantifies how much the additive
assumption would overestimate a pipelining middleware (the bench
``bench_ablation_pipelining.py``), and how much headroom chunk streaming
leaves on the table.  The computation itself is identical to
:class:`~repro.middleware.runtime.FreerideGRuntime` — both fold the same
:class:`~repro.middleware.kernels.KernelTrace` pieces in the same order,
so results match bit for bit, which the tests assert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.middleware.api import GeneralizedReduction
from repro.middleware.caching import CacheModel
from repro.middleware.chunks import ChunkAssignment, assign_chunks
from repro.middleware.dataset import Dataset
from repro.middleware.instrument import OpCounter
from repro.middleware.kernels import KernelTrace, fold_pieces
from repro.middleware.scheduler import RunConfig
from repro.simgrid.engine import FIFOServer
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.network import LinkModel
from repro.simgrid.trace import left_sum

__all__ = ["PipelinedRunResult", "PipelinedRuntime"]


@dataclass
class PipelinedRunResult:
    """Outcome of a pipelined execution.

    ``makespan`` is the simulated wall time with chunk streaming;
    ``resource_busy`` holds, per resource class, the maximum busy time of
    any single resource (how close each stage is to being the pipeline
    bottleneck).
    """

    result: Any
    makespan: float
    serial_tail: float  # gather + global reduction + broadcast time
    resource_busy: Dict[str, float]
    assignment: ChunkAssignment
    num_passes: int


class PipelinedRuntime:
    """Chunk-streaming execution of generalized reductions."""

    def __init__(
        self, config: RunConfig, kernels: Optional[KernelTrace] = None
    ) -> None:
        if config.processes_per_node != 1:
            raise ConfigurationError(
                "the pipelined runtime models one process per node"
            )
        if config.remote_cache_bandwidth is not None:
            raise ConfigurationError(
                "the pipelined runtime models local-disk caching only"
            )
        self.config = config
        self.kernels = kernels

    def execute(
        self, app: GeneralizedReduction, dataset: Dataset
    ) -> PipelinedRunResult:
        """Run ``app`` with per-chunk pipelining; returns the makespan."""
        config = self.config
        kernels = self.kernels if self.kernels is not None else KernelTrace()
        kernels.bind(app, dataset)
        assignment = assign_chunks(
            dataset.num_chunks, config.data_nodes, config.compute_nodes
        )
        storage = config.storage_cluster
        compute = config.compute_cluster
        link = LinkModel(
            latency_s=storage.node.nic.latency_s,
            bw=min(storage.node.nic.bw, config.bandwidth),
        )
        disk_bw = storage.effective_disk_bw(config.data_nodes)
        cache = CacheModel(compute.effective_cache_disk)

        destination = [0] * dataset.num_chunks
        for j, chunks in enumerate(assignment.compute_node_chunks):
            for chunk in chunks:
                destination[chunk] = j

        app.begin(dict(dataset.meta))
        caching = app.multi_pass_hint
        cached = False

        makespan = 0.0
        serial_tail = 0.0
        busy: Dict[str, float] = {"disk": 0.0, "network": 0.0, "cpu": 0.0}
        passes = 0

        for pass_index in itertools.count():
            passes += 1
            fed_from_network = not cached

            disks = [FIFOServer(f"disk{d}") for d in range(config.data_nodes)]
            nics = [FIFOServer(f"nic{d}") for d in range(config.data_nodes)]
            cpus = [
                FIFOServer(f"cpu{j}") for j in range(config.compute_nodes)
            ]

            # Start-of-pass fixed costs block each resource before its
            # first service.
            for disk in disks:
                disk.serve(0.0, storage.node_startup_s)
            for cpu in cpus:
                cpu.serve(0.0, compute.compute_pass_startup_s)

            pieces = kernels.pieces(app, dataset, pass_index)
            chunk_times = pieces.chunk_times(compute.node.cpu)
            local_objects = [
                fold_pieces(app, pieces, chunks)
                for chunks in assignment.compute_node_chunks
            ]

            # Walk chunks in global order so per-data-node FIFO order
            # matches the phased runtime's round-robin hand-out.
            recv_scale = config.data_nodes / config.compute_nodes
            for chunk in range(dataset.num_chunks):
                d = chunk % config.data_nodes
                j = destination[chunk]
                nbytes = dataset.chunk_sizes[chunk]
                service = chunk_times[chunk] + compute.chunk_dispatch_overhead_s

                if fed_from_network:
                    seek = storage.node.disk.seek_s
                    _, read_end = disks[d].serve(0.0, seek + nbytes / disk_bw)
                    _, net_end = nics[d].serve(
                        read_end, link.message_time(nbytes)
                    )
                    arrival = net_end
                    service += compute.chunk_receive_overhead_s * recv_scale
                    if caching:
                        service += cache.write_time([nbytes])
                else:
                    arrival = 0.0
                    service += cache.read_time([nbytes])
                cpus[j].serve(arrival, service)

            local_done = max(cpu.free_at for cpu in cpus)
            busy["disk"] = max(busy["disk"], max(d.busy_time for d in disks))
            busy["network"] = max(
                busy["network"], max(n.busy_time for n in nics)
            )
            busy["cpu"] = max(busy["cpu"], max(c.busy_time for c in cpus))

            # Gather + global reduction + broadcast are serialized after
            # the pipeline drains, as in FREERIDE-G.
            tail = left_sum(
                compute.gather_message_time(app.object_nbytes(obj))
                for obj in local_objects[1:]
            )
            master = OpCounter()
            combined = app.combine(local_objects, master)
            another_pass = app.update(combined, master)
            tail += (
                compute.node.cpu.compute_time(master.ops)
                + len(local_objects) * compute.gather_deserialize_s
            )
            if app.broadcasts_result:
                tail += (
                    config.compute_nodes - 1
                ) * compute.gather_message_time(app.broadcast_nbytes(combined))

            makespan += local_done + tail
            serial_tail += tail

            if fed_from_network and caching:
                cached = True
            if not another_pass:
                break

        return PipelinedRunResult(
            result=app.result(),
            makespan=makespan,
            serial_tail=serial_tail,
            resource_busy=busy,
            assignment=assignment,
            num_passes=passes,
        )
