"""The FREERIDE-G execution engine.

:class:`FreerideGRuntime` drives a :class:`~repro.middleware.api.GeneralizedReduction`
application over a chunked dataset on a given resource configuration and
produces the application result together with the execution-time breakdown
the prediction framework consumes.

One pass executes the canonical phase sequence (phases do not overlap,
matching the paper's additive model):

1. **Retrieval** (pass 0, or any pass when the application did not request
   caching): repository disks read every chunk — ``t_disk``.
2. **Communication** (same passes): data-node NICs stream chunks to their
   destination compute nodes — ``t_network``.
3. **Compute**: every node folds its chunks into its replicated reduction
   object (kernel time from charged op counts), pays receive handling and
   cache traffic; then reduction objects are gathered serially at the
   master (``T_ro``), globally reduced (``T_g``) and — for iterative
   applications — the combined object is broadcast back.

The application's computation is performed **for real**: the reduction
objects contain genuine centroids / sufficient statistics / feature lists.
The NumPy kernels run once per (pass, chunk) into a
:class:`~repro.middleware.kernels.KernelTrace`; each node's object is the
fold of its chunks' pieces, and everything after the local fold runs on
those objects as written above.  Executions that share a trace share the
kernels; :mod:`repro.middleware.kernels` states what that keeps exact.

Fault tolerance
---------------
Installing a :class:`~repro.faults.injector.FaultInjector` arms the
recovery paths (see DESIGN.md, "Fault model and recovery semantics"):

- transient chunk-read errors retry under the injector's
  :class:`~repro.faults.retry.RetryPolicy`, charged into ``t_disk``;
- a crashed data node fails over to a replica (selected through the
  injector, backed by the :class:`~repro.middleware.replica.ReplicaCatalog`
  when attached) and re-ships only its unshipped chunk tail;
- a crashed compute node's reduction *role* migrates to a survivor and the
  pass restarts from the last reduction-object checkpoint; checkpoint
  writes are charged into ``t_ckpt``.

Recovery is **role-preserving**: the reduction-object merge tree of a
faulted run is identical to the fault-free run's, so application results
are bit-identical — only timing changes.  There is one pass loop: with no
injector installed it runs under a fresh injector over the empty
:class:`~repro.faults.specs.FaultSchedule`, where no fault fires and every
phase time is the healthy grid's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.hotpath import hot
from repro.errors import RecoveryExhaustedError
from repro.faults.injector import FaultInjector
from repro.faults.specs import FaultSchedule
from repro.middleware.api import GeneralizedReduction
from repro.middleware.caching import CacheModel
from repro.middleware.chunks import (
    ChunkAssignment,
    assign_chunks,
    map_roles_to_survivors,
    unshipped_chunks,
)
from repro.middleware.compute_server import ComputeServer
from repro.middleware.data_server import DataServer
from repro.middleware.dataset import Dataset
from repro.middleware.instrument import OpCounter
from repro.middleware.kernels import KernelTrace, fold_pieces
from repro.middleware.scheduler import GatherTopology, RunConfig
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.trace import PassRecord, TimeBreakdown, left_sum

__all__ = ["RunResult", "FreerideGRuntime"]


@dataclass
class RunResult:
    """Outcome of one middleware execution."""

    result: Any
    breakdown: TimeBreakdown
    assignment: ChunkAssignment

    @property
    def total_time(self) -> float:
        """Simulated wall time of the run."""
        return self.breakdown.total


def _tree_gather(
    app: GeneralizedReduction,
    objects: List[Any],
    cluster: ClusterSpec,
) -> tuple[Any, float]:
    """Binomial-tree gather with merge-on-receive.

    Round ``r`` sends the object of every node whose index has bit ``r``
    set (and lower bits clear) to the node ``2^r`` below it; transfers in a
    round run in parallel, so the round costs its slowest
    (message + handling + merge).  Returns the root's merged object and
    the total gather time.
    """
    holders = list(objects)
    t_ro = 0.0
    stride = 1
    while stride < len(holders):
        round_times = []
        for receiver in range(0, len(holders), 2 * stride):
            sender = receiver + stride
            if sender >= len(holders):
                continue
            size = app.object_nbytes(holders[sender])
            merge_counter = OpCounter()
            holders[receiver] = app.merge_local(
                [holders[receiver], holders[sender]], merge_counter
            )
            merge_time = cluster.node.cpu.compute_time(merge_counter.ops)
            round_times.append(
                cluster.gather_message_time(size)
                + cluster.gather_deserialize_s
                + merge_time
            )
        if round_times:
            t_ro += max(round_times)
        stride *= 2
    return holders[0], t_ro


class FreerideGRuntime:
    """Executes generalized-reduction applications on simulated resources.

    Parameters
    ----------
    config:
        The resource configuration to execute under.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`, which
        arms retries, replica failover, role migration and
        reduction-object checkpointing.  ``None`` (the default) runs the
        healthy grid: the empty schedule, with no fault metadata recorded.
    kernels:
        Optional :class:`~repro.middleware.kernels.KernelTrace` shared
        with other executions of the same application over the same
        dataset: passes it already holds are not re-executed.  ``None``
        records into a private trace per :meth:`execute` call.
    """

    def __init__(
        self,
        config: RunConfig,
        faults: Optional[FaultInjector] = None,
        kernels: Optional[KernelTrace] = None,
    ) -> None:
        self.config = config
        self.faults = faults
        self.kernels = kernels

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------

    @staticmethod
    @hot
    def _transfer_phases(
        faults: FaultInjector,
        pass_index: int,
        data_server: DataServer,
        assignment: ChunkAssignment,
        events: List[Dict[str, Any]],
    ) -> Tuple[float, float]:
        """Retrieval + communication times under ``faults``."""
        policy = faults.policy
        per_node_sizes = data_server.per_node_chunk_sizes
        node_read = data_server.node_retrieval_times()

        # Transient chunk-read errors: retried reads charged into t_disk.
        for node, sizes in enumerate(per_node_sizes):
            failures = faults.chunk_failures(pass_index, node, len(sizes))
            if not failures:
                continue
            extra = 0.0
            for position, count in sorted(failures.items()):
                if count > policy.max_failures:
                    raise RecoveryExhaustedError(
                        f"chunk at position {position} of data node {node} "
                        f"failed {count} times, exhausting the "
                        f"{policy.max_attempts}-attempt retry budget"
                    )
                chunk = assignment.data_node_chunks[node][position]
                extra += policy.retry_cost_s(
                    count, data_server.chunk_read_time(chunk)
                )
            node_read[node] += extra
            events.append(
                {
                    "kind": "chunk-read-retries",
                    "pass": pass_index,
                    "data_node": node,
                    "chunks_affected": len(failures),
                    "failed_attempts": sum(failures.values()),
                    "t_disk_extra": extra,
                }
            )
        t_disk = max(node_read)

        # Communication, with any active link degradations.
        link_factors = [
            faults.link_factor(node, pass_index)
            for node in range(len(per_node_sizes))
        ]
        degraded = any(f > 1.0 for f in link_factors)
        streams = data_server.node_stream_times(link_factors if degraded else None)
        t_network = max(streams)
        if degraded:
            events.append(
                {
                    "kind": "link-degradation",
                    "pass": pass_index,
                    "factors": {
                        node: factor
                        for node, factor in enumerate(link_factors)
                        if factor > 1.0
                    },
                }
            )

        # Data-node crashes: fail the unshipped tail over to a replica.
        for crash in faults.data_node_crashes(pass_index):
            site = faults.failover_site(crash.data_node)
            tail = unshipped_chunks(assignment, crash.data_node, crash.at_fraction)
            extra_disk, extra_net = data_server.refetch_cost(
                tail, link_factor=faults.link_factor(crash.data_node, pass_index)
            )
            t_disk += extra_disk
            t_network += extra_net
            events.append(
                {
                    "kind": "data-node-failover",
                    "pass": pass_index,
                    "data_node": crash.data_node,
                    "replica_site": site,
                    "unshipped_chunks": len(tail),
                    "t_disk_extra": extra_disk,
                    "t_network_extra": extra_net,
                }
            )
        return t_disk, t_network

    @staticmethod
    @hot
    def _local_phase(
        role_totals: List[float],
        role_caches: List[float],
        executor_roles: Dict[int, List[int]],
        slow_factors: Dict[int, float],
    ) -> Tuple[float, float]:
        """(phase time, critical-path cache share) of the local stage.

        Each executor runs its roles back-to-back; the phase ends with the
        slowest executor, whose cache share is attributed to the pass.
        """
        executor_ids = sorted(executor_roles)
        times: List[float] = []
        caches: List[float] = []
        for executor in executor_ids:
            roles = executor_roles[executor]
            if len(roles) == 1:
                total = role_totals[roles[0]]
                cache = role_caches[roles[0]]
            else:
                total = left_sum(role_totals[r] for r in roles)
                cache = left_sum(role_caches[r] for r in roles)
            factor = slow_factors.get(executor, 1.0)
            if factor > 1.0:
                total *= factor
            times.append(total)
            caches.append(cache)
        slowest = max(range(len(times)), key=times.__getitem__)
        return times[slowest], caches[slowest]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @hot
    def execute(self, app: GeneralizedReduction, dataset: Dataset) -> RunResult:
        """Run ``app`` over ``dataset``; returns result + time breakdown."""
        config = self.config
        # A fresh injector per call: it carries replica-failover state.
        faults = self.faults or FaultInjector(FaultSchedule())
        kernels = self.kernels if self.kernels is not None else KernelTrace()
        kernels.bind(app, dataset)
        assignment = assign_chunks(
            dataset.num_chunks, config.data_nodes, config.compute_nodes
        )
        data_server = DataServer(config, dataset, assignment)
        compute_servers = [
            ComputeServer(config, j) for j in range(config.compute_nodes)
        ]
        per_node_chunk_sizes = [
            [dataset.chunk_sizes[c] for c in chunks]
            for chunks in assignment.compute_node_chunks
        ]

        breakdown = TimeBreakdown(
            metadata={
                "app": app.name,
                "config": config.label,
                "dataset": dataset.name,
                "dataset_nbytes": dataset.nbytes,
                "dataset_chunks": dataset.num_chunks,
                "bandwidth": config.bandwidth,
                "storage_cluster": config.storage_cluster.name,
                "compute_cluster": config.compute_cluster.name,
                "processes_per_node": config.processes_per_node,
            }
        )

        faults.validate(config.data_nodes, config.compute_nodes)
        ckpt_disk = CacheModel(config.compute_cluster.effective_cache_disk)
        crashed_compute: set[int] = set()
        # Executor -> reduction roles; it changes only when a node crashes.
        executor_roles = map_roles_to_survivors(config.compute_nodes, ())
        last_ckpt_bytes = 0.0

        app.begin(dict(dataset.meta))
        caching = app.multi_pass_hint
        cached = False
        max_object_bytes = 0.0
        network_fed_passes = 0
        # Seconds each node takes to re-read its cache, set once it is filled.
        cache_reads: List[float] = []

        for pass_index in itertools.count():
            events: List[Dict[str, Any]] = []
            fed_from_network = not cached
            if fed_from_network:
                network_fed_passes += 1
            t_disk = t_network = 0.0
            if fed_from_network:
                t_disk, t_network = self._transfer_phases(
                    faults, pass_index, data_server, assignment, events
                )
            else:
                # Repository nodes are idle in cache-fed passes: a crash
                # there needs no recovery, but is still observable.
                for crash in faults.data_node_crashes(pass_index):
                    events.append(
                        {
                            "kind": "data-node-crash-idle",
                            "pass": pass_index,
                            "data_node": crash.data_node,
                            "note": "pass is cache-fed; no recovery needed",
                        }
                    )

            # ---- per-node local reduction -------------------------------
            # Each compute node runs `processes_per_node` reduction threads
            # over its chunks; thread objects are merged in shared memory
            # so a single object per node enters the gather.  Under fault
            # tolerance each original node is a *role* that may execute on
            # a surviving node; computing per-role keeps the reduction
            # structure (and therefore the result) fault-invariant.
            ppn = config.processes_per_node
            pieces = kernels.pieces(app, dataset, pass_index)
            chunk_times = pieces.chunk_times(config.compute_cluster.node.cpu)
            role_totals: List[float] = []
            role_caches: List[float] = []
            local_objects: List[Any] = []
            for j, server in enumerate(compute_servers):
                node_chunks = assignment.compute_node_chunks[j]
                thread_chunks = [node_chunks[t::ppn] for t in range(ppn)]
                thread_objects = [
                    fold_pieces(app, pieces, chunks) for chunks in thread_chunks
                ]

                if ppn == 1:
                    node_object = thread_objects[0]
                    merge_time = 0.0
                else:
                    merge_counter = OpCounter()
                    node_object = app.merge_local(thread_objects, merge_counter)
                    merge_time = config.compute_cluster.node.cpu.compute_time(
                        merge_counter.ops
                    )
                local_objects.append(node_object)

                cache_time = 0.0
                recv_time = 0.0
                if fed_from_network:
                    recv_time = server.receive_overhead(len(node_chunks))
                    if caching:
                        cache_time = server.cache_write_time(
                            per_node_chunk_sizes[j]
                        )
                else:
                    cache_time = cache_reads[j]

                kernel_time = server.compute_time(chunk_times, thread_chunks)
                role_caches.append(cache_time)
                role_totals.append(
                    kernel_time + merge_time + recv_time + cache_time
                )

            # ---- compute-node crashes: role migration + pass restart ----
            lost_work = 0.0
            for crash in faults.compute_node_crashes(pass_index):
                if crash.compute_node in crashed_compute:
                    continue
                # Work done before the crash was detected is lost; the
                # aborted attempt ran on the pre-crash executor map.
                slow = {
                    e: faults.slow_factor(e, pass_index) for e in executor_roles
                }
                attempt, _ = self._local_phase(
                    role_totals, role_caches, executor_roles, slow
                )
                lost_work += crash.at_fraction * attempt
                crashed_compute.add(crash.compute_node)
                if len(crashed_compute) >= config.compute_nodes:
                    raise RecoveryExhaustedError(
                        "every compute node has crashed; cannot "
                        "redistribute the reduction roles"
                    )
                executor_roles = map_roles_to_survivors(
                    config.compute_nodes, sorted(crashed_compute)
                )
                # The migrated role's chunks must be re-fed from the
                # repository (the crashed node's cache died with it).
                source = assignment.compute_source[crash.compute_node]
                extra_disk, extra_net = data_server.refetch_cost(
                    assignment.compute_node_chunks[crash.compute_node],
                    link_factor=faults.link_factor(source, pass_index),
                )
                t_disk += extra_disk
                t_network += extra_net
                # Survivors restart from the last checkpoint.
                restore = 0.0
                if last_ckpt_bytes > 0.0:
                    restore = ckpt_disk.read_time([last_ckpt_bytes])
                lost_work += restore
                events.append(
                    {
                        "kind": "compute-node-recovery",
                        "pass": pass_index,
                        "compute_node": crash.compute_node,
                        "survivors": config.compute_nodes - len(crashed_compute),
                        "t_lost_work": crash.at_fraction * attempt,
                        "t_restore": restore,
                        "t_disk_extra": extra_disk,
                        "t_network_extra": extra_net,
                    }
                )

            # Phase barrier: the pass's local stage ends with the slowest
            # executor; attribute the cache share of the critical path.
            slow = {e: faults.slow_factor(e, pass_index) for e in executor_roles}
            if any(f > 1.0 for f in slow.values()):
                events.append(
                    {
                        "kind": "slow-nodes",
                        "pass": pass_index,
                        "factors": {e: f for e, f in slow.items() if f > 1.0},
                    }
                )
            t_local_total, t_cache = self._local_phase(
                role_totals, role_caches, executor_roles, slow
            )
            t_local_compute = t_local_total - t_cache + lost_work

            # ---- gather reduction objects at the master -----------------
            object_sizes = [app.object_nbytes(obj) for obj in local_objects]
            max_object_bytes = max(max_object_bytes, max(object_sizes))
            cluster = config.compute_cluster
            if (
                config.gather_topology is GatherTopology.TREE
                and len(local_objects) > 1
            ):
                root_object, t_ro = _tree_gather(app, local_objects, cluster)
                combine_inputs: List[Any] = [root_object]
            else:
                t_ro = left_sum(
                    cluster.gather_message_time(size)
                    for size in object_sizes[1:]
                )
                combine_inputs = local_objects

            # ---- serialized global reduction ----------------------------
            # The master folds every reduction object — its own included —
            # paying a fixed handling cost per object plus the charged
            # merge/update work.  (Under a tree gather the pairwise merges
            # already happened along the tree; the master processes the
            # single merged object.)
            master = OpCounter()
            combined = app.combine(combine_inputs, master)
            another_pass = app.update(combined, master)
            t_g = (
                cluster.node.cpu.compute_time(master.ops)
                + len(combine_inputs) * cluster.gather_deserialize_s
            )

            if app.broadcasts_result:
                bcast = app.broadcast_nbytes(combined)
                # Only live nodes receive the re-broadcast.
                receivers = config.compute_nodes - len(crashed_compute)
                if config.gather_topology is GatherTopology.TREE:
                    rounds = math.ceil(math.log2(receivers)) if receivers > 1 else 0
                    t_ro += rounds * cluster.gather_message_time(bcast)
                else:
                    t_ro += (receivers - 1) * cluster.gather_message_time(bcast)
                breakdown.metadata["broadcast_nbytes"] = bcast

            # ---- reduction-object checkpoint ----------------------------
            t_ckpt = 0.0
            if faults.checkpoints_enabled:
                # The checkpoint stores the merged reduction object; its
                # size is that of the largest gathered object (`combined`
                # itself may be an application-level result type).
                last_ckpt_bytes = max(object_sizes)
                t_ckpt = ckpt_disk.write_time([last_ckpt_bytes])

            breakdown.add_pass(
                PassRecord(
                    index=pass_index,
                    t_disk=t_disk,
                    t_network=t_network,
                    t_local_compute=t_local_compute,
                    t_cache=t_cache,
                    t_ro=t_ro,
                    t_g=t_g,
                    t_ckpt=t_ckpt,
                    events=tuple(events),
                )
            )

            if not another_pass:
                break
            if fed_from_network and caching:
                cached = True
                cache_reads = [
                    server.cache_read_time(sizes)
                    for server, sizes in zip(compute_servers, per_node_chunk_sizes)
                ]

        breakdown.max_reduction_object_bytes = max_object_bytes
        breakdown.metadata["gather_rounds"] = breakdown.num_passes
        breakdown.metadata["network_fed_passes"] = network_fed_passes
        breakdown.metadata["broadcasts_result"] = app.broadcasts_result
        if self.faults is not None:
            breakdown.metadata["fault_schedule_size"] = len(faults.schedule)
            breakdown.metadata["checkpoints"] = faults.checkpoints_enabled
            breakdown.metadata["faults_fired"] = len(breakdown.fault_events)
        return RunResult(
            result=app.result(), breakdown=breakdown, assignment=assignment
        )
