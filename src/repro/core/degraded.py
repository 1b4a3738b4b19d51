"""Degraded-mode prediction: what faults cost, before they happen.

The paper's framework predicts ``T_exec`` on healthy resources; grids are
not healthy.  :class:`DegradedModePredictor` extends the additive model
with an **expected recovery term**:

    T̂_exec(faulted) = T̂_exec + T̂_recover

``T̂_recover`` prices exactly the recovery work the fault-tolerant runtime
performs (see DESIGN.md, "Fault model and recovery semantics"):

- transient read **retries** under the injector's retry policy;
- replica **re-fetch** of a crashed data node's unshipped chunk tail;
- a crashed compute node's **lost work**, checkpoint **restore**, role
  re-feed, and the **redistribution** drag of survivors running extra
  reduction roles for the remaining passes;
- reduction-object **checkpoint** writes;
- **degraded links** and externally **slowed nodes** stretching their
  phases.

Each term mirrors the corresponding runtime charge using the target's
hardware specs and the profile-scaled per-pass component times, so the
prediction degrades exactly as the base model does — perfectly when the
target equals the profile configuration, within the base model's error
otherwise.

A what-if query — "predict T_exec if one data node fails at 50% of
retrieval" — is a one-fault schedule handed to :meth:`predict`::

    DegradedModePredictor(model).predict(
        profile, target, FaultSchedule([DataNodeCrash(0, 0, at_fraction=0.5)])
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.models import PredictedBreakdown, PredictionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.core.units import Seconds
from repro.errors import FaultError
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.specs import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultSchedule,
    LinkDegradation,
    SlowNode,
)
from repro.middleware.chunks import map_roles_to_survivors

__all__ = [
    "RecoveryBreakdown",
    "DegradedPrediction",
    "DegradedModePredictor",
]


@dataclass(frozen=True)
class RecoveryBreakdown:
    """The expected recovery term, componentwise (all seconds)."""

    t_retry: Seconds = 0.0
    t_refetch_disk: Seconds = 0.0
    t_refetch_network: Seconds = 0.0
    t_lost_work: Seconds = 0.0
    t_restore: Seconds = 0.0
    t_redistribution: Seconds = 0.0
    t_ckpt: Seconds = 0.0
    t_degraded_links: Seconds = 0.0
    t_slow_nodes: Seconds = 0.0

    @property
    def total(self) -> Seconds:
        """T̂_recover — the sum of every expected recovery cost."""
        return (
            self.t_retry
            + self.t_refetch_disk
            + self.t_refetch_network
            + self.t_lost_work
            + self.t_restore
            + self.t_redistribution
            + self.t_ckpt
            + self.t_degraded_links
            + self.t_slow_nodes
        )


@dataclass(frozen=True)
class DegradedPrediction:
    """A fault-free prediction plus its expected recovery term."""

    base: PredictedBreakdown
    recovery: RecoveryBreakdown

    @property
    def t_recover(self) -> Seconds:
        """The expected recovery term T̂_recover."""
        return self.recovery.total

    @property
    def total(self) -> Seconds:
        """T̂_exec(faulted) = T̂_exec + T̂_recover."""
        return self.base.total + self.recovery.total


class DegradedModePredictor:
    """Predicts faulted execution times from a healthy profile.

    Parameters
    ----------
    model:
        The base :class:`~repro.core.models.PredictionModel` supplying
        the fault-free T̂_exec (typically the Section 5.1 full model).
    policy:
        The retry policy the faulted run will execute under; must match
        the injector's for the retry term to be meaningful.
    """

    def __init__(
        self,
        model: PredictionModel,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.model = model
        self.policy = policy

    # ------------------------------------------------------------------
    # The what-if API
    # ------------------------------------------------------------------

    def predict(
        self,
        profile: Profile,
        target: PredictionTarget,
        schedule: FaultSchedule,
    ) -> DegradedPrediction:
        """Predict the target's execution time under ``schedule``."""
        base = self.model.predict(profile, target)
        ctx = _Context(profile, target, base, self.policy)

        retry = sum(
            ctx.retry_cost(spec) for spec in schedule.of_type(ChunkReadError)
        )
        refetch_disk = refetch_net = 0.0
        for crash in schedule.of_type(DataNodeCrash):
            if crash.pass_index >= ctx.fed_passes:
                continue  # cache-fed pass: repository idle, nothing to recover
            disk, net = ctx.refetch_cost(
                (1.0 - crash.at_fraction) * ctx.chunks_per_data_node,
                (1.0 - crash.at_fraction) * ctx.bytes_per_data_node,
            )
            refetch_disk += disk
            refetch_net += net

        lost = restore = redistribution = t_ckpt = 0.0
        crashes = sorted(
            schedule.of_type(ComputeNodeCrash),
            key=lambda f: (f.pass_index, f.at_fraction, f.compute_node),
        )
        if crashes:
            crashed: list = []
            for crash in crashes:
                if crash.compute_node in crashed:
                    continue
                # Work lost in the aborted attempt, on the pre-crash map.
                lost += crash.at_fraction * ctx.local_phase_time(crashed)
                crashed.append(crash.compute_node)
                if len(crashed) >= target.compute_nodes:
                    raise FaultError(
                        "schedule crashes every compute node in the target; "
                        "no degraded mode exists to predict"
                    )
                restore += ctx.checkpoint_read_time
                disk, net = ctx.refetch_cost(
                    ctx.chunks_per_compute_node, ctx.bytes_per_compute_node
                )
                refetch_disk += disk
                refetch_net += net
                # Survivors drag the re-executed pass and every later pass.
                remaining = max(ctx.num_passes - crash.pass_index, 0)
                drag = ctx.local_phase_time(crashed) - ctx.local_per_pass
                redistribution += remaining * max(drag, 0.0)
        if schedule.checkpoints_enabled:
            t_ckpt = ctx.num_passes * ctx.checkpoint_write_time

        degraded = ctx.link_degradation_cost(schedule)
        slowed = ctx.slow_node_cost(schedule)

        return DegradedPrediction(
            base=base,
            recovery=RecoveryBreakdown(
                t_retry=retry,
                t_refetch_disk=refetch_disk,
                t_refetch_network=refetch_net,
                t_lost_work=lost,
                t_restore=restore,
                t_redistribution=redistribution,
                t_ckpt=t_ckpt,
                t_degraded_links=degraded,
                t_slow_nodes=slowed,
            ),
        )

    def predict_compute_node_crash(
        self,
        profile: Profile,
        target: PredictionTarget,
        compute_node: int = 0,
        at_fraction: float = 0.5,
        pass_index: int = 0,
    ) -> DegradedPrediction:
        """What-if: one compute node fails mid-pass."""
        return self.predict(
            profile,
            target,
            FaultSchedule(
                [ComputeNodeCrash(pass_index, compute_node, at_fraction)]
            ),
        )


class _Context:
    """Profile-scaled per-pass quantities and hardware pricing helpers."""

    def __init__(
        self,
        profile: Profile,
        target: PredictionTarget,
        base: PredictedBreakdown,
        policy: RetryPolicy,
    ) -> None:
        self.profile = profile
        self.target = target
        self.base = base
        self.policy = policy

        meta = profile.metadata or {}
        self.num_passes = max(profile.gather_rounds, 1)
        self.fed_passes = max(int(meta.get("network_fed_passes", 1)), 1)
        # Chunk count scales with dataset size (fixed nominal chunk size).
        profile_chunks = meta.get("dataset_chunks")
        if profile_chunks:
            self.num_chunks: Optional[float] = (
                float(profile_chunks)
                * target.dataset_bytes
                / profile.dataset_bytes
            )
        else:
            self.num_chunks = None  # per-chunk overheads dropped

        self.disk_per_fed = base.t_disk / self.fed_passes
        self.net_per_fed = base.t_network / self.fed_passes
        self.local_per_pass = (
            max(base.t_compute - base.t_ro - base.t_g, 0.0) / self.num_passes
        )

        storage = target.config.storage_cluster
        self._disk_spec = storage.node.disk
        self._startup_s = storage.node_startup_s
        nic = storage.node.nic
        self._link_latency_s = nic.latency_s
        self._link_bw = min(nic.bw, target.bandwidth)
        self._contended_bw = storage.effective_disk_bw(target.data_nodes)
        self._cache_disk = target.config.compute_cluster.effective_cache_disk
        self._object_bytes = profile.max_object_bytes

    # ---- dataset geometry on the target ------------------------------

    @property
    def chunks_per_data_node(self) -> float:
        if self.num_chunks is None:
            return 0.0
        return self.num_chunks / self.target.data_nodes

    @property
    def bytes_per_data_node(self) -> float:
        return self.target.dataset_bytes / self.target.data_nodes

    @property
    def chunks_per_compute_node(self) -> float:
        if self.num_chunks is None:
            return 0.0
        return self.num_chunks / self.target.compute_nodes

    @property
    def bytes_per_compute_node(self) -> float:
        return self.target.dataset_bytes / self.target.compute_nodes

    @property
    def chunk_bytes(self) -> float:
        if not self.num_chunks:
            return 0.0
        return self.target.dataset_bytes / self.num_chunks

    # ---- hardware pricing (mirrors DataServer.refetch_cost) ----------

    def refetch_cost(
        self, chunks: float, nbytes: float, link_factor: float = 1.0
    ) -> tuple:
        """(disk, network) expected cost of re-serving a chunk set."""
        if nbytes <= 0.0:
            return 0.0, 0.0
        disk = (
            self._startup_s
            + chunks * self._disk_spec.seek_s
            + nbytes / self._disk_spec.stream_bw
        )
        network = (
            chunks * self._link_latency_s + nbytes / self._link_bw
        ) * link_factor
        return disk, network

    @property
    def contended_chunk_read_s(self) -> float:
        """Expected read time of one chunk under backplane contention."""
        return self._disk_spec.seek_s + self.chunk_bytes / self._contended_bw

    @property
    def checkpoint_write_time(self) -> float:
        return self._object_bytes / self._cache_disk.stream_bw

    @property
    def checkpoint_read_time(self) -> float:
        return (
            self._cache_disk.seek_s
            + self._object_bytes / self._cache_disk.stream_bw
        )

    # ---- per-fault expected costs ------------------------------------

    def retry_cost(self, spec: ChunkReadError) -> float:
        """Expected retry time a ChunkReadError spec charges into t_disk."""
        read = self.contended_chunk_read_s
        total = 0.0
        if spec.failures:
            for count in spec.failures.values():
                bounded = min(count, self.policy.max_failures)
                total += self.policy.retry_cost_s(bounded, read)
        if spec.rate > 0.0 and self.num_chunks:
            # The injector draws a geometric failure count per chunk,
            # capped at the retry budget: P(>= i failures) = rate**i.
            per_chunk = 0.0
            for i in range(1, self.policy.max_failures + 1):
                p_at_least_i = spec.rate**i
                per_chunk += p_at_least_i * (
                    self.policy.attempt_cost_s(read)
                    + self.policy.backoff_s(i)
                )
            # The retrieval phase ends at the slowest data node; retries
            # land on every affected node alike, so the phase stretches
            # by one node's share per affected fed pass.
            affected_passes = (
                1 if spec.pass_index is not None else self.fed_passes
            )
            total += (
                affected_passes * self.chunks_per_data_node * per_chunk
            )
        return total

    def local_phase_time(self, crashed: list) -> float:
        """Local-phase time with ``crashed`` nodes' roles migrated."""
        if not crashed:
            return self.local_per_pass
        roles = map_roles_to_survivors(self.target.compute_nodes, crashed)
        heaviest = max(len(r) for r in roles.values())
        return heaviest * self.local_per_pass

    def link_degradation_cost(self, schedule: FaultSchedule) -> float:
        """Expected stretch of the communication phase, degraded links."""
        specs = schedule.of_type(LinkDegradation)
        if not specs:
            return 0.0
        total = 0.0
        for pass_index in range(self.fed_passes):
            worst = 1.0
            for node in range(self.target.data_nodes):
                factor = 1.0
                for spec in specs:
                    if spec.data_node == node and spec.active(pass_index):
                        factor *= spec.factor
                worst = max(worst, factor)
            total += (worst - 1.0) * self.net_per_fed
        return total

    def slow_node_cost(self, schedule: FaultSchedule) -> float:
        """Expected stretch of the local phase from externally slow nodes."""
        specs = schedule.of_type(SlowNode)
        if not specs:
            return 0.0
        total = 0.0
        for pass_index in range(self.num_passes):
            worst = 1.0
            for node in range(self.target.compute_nodes):
                factor = 1.0
                for spec in specs:
                    if spec.compute_node == node and spec.active(pass_index):
                        factor *= spec.factor
                worst = max(worst, factor)
            total += (worst - 1.0) * self.local_per_pass
        return total
