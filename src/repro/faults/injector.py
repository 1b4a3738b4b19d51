"""The deterministic fault injector.

One :class:`FaultInjector` is installed per execution.  It answers, for
each pass/phase/node, *which faults fire* — entirely deterministically:
scheduled faults fire exactly where their spec says, and rate-driven
transient read errors are drawn from a :class:`random.Random` seeded per
``(seed, pass, data node)``, so the same scenario and seed always yield
the same faulted run (the property-based tests and the degraded-mode
predictor both depend on this).

Replica failover for crashed data nodes consumes a list of standby
replica site names (a scenario's ``replicas``), in order; a data-node
crash with no replica left raises
:class:`~repro.errors.RecoveryExhaustedError`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.errors import FaultError, RecoveryExhaustedError
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.specs import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultSchedule,
    LinkDegradation,
    SlowNode,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Decides deterministically which faults fire during one execution.

    Parameters
    ----------
    schedule:
        The fault specs to fire.
    policy:
        Retry policy for transient chunk-read errors.
    seed:
        Seed for the rate-driven transient-error draws.
    replica_sites:
        Standby replica sites (site names) available for data-node
        failover, consumed in order.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        seed: int = 0,
        replica_sites: Sequence[str] = ("standby-replica",),
    ) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise FaultError(
                f"schedule must be a FaultSchedule, got {type(schedule).__name__}"
            )
        self.schedule = schedule
        self.policy = policy
        self.seed = int(seed)
        self._replica_sites: List[str] = list(replica_sites)

    # ------------------------------------------------------------------
    # Replica failover
    # ------------------------------------------------------------------

    def failover_site(self, failed_data_node: int) -> str:
        """The replica site adopting ``failed_data_node``'s chunk batch.

        Consumes one replica per call: a site that already absorbed a
        crash is not offered again.  Raises
        :class:`RecoveryExhaustedError` when none remain.
        """
        if not self._replica_sites:
            raise RecoveryExhaustedError(
                f"data node {failed_data_node} crashed and no replica "
                "remains to fail over to"
            )
        return self._replica_sites.pop(0)

    # ------------------------------------------------------------------
    # Scheduled fault queries (all deterministic)
    # ------------------------------------------------------------------

    def data_node_crashes(self, pass_index: int) -> List[DataNodeCrash]:
        """Data-node crashes firing in ``pass_index``, by crash fraction."""
        crashes = [
            f
            for f in self.schedule.of_type(DataNodeCrash)
            if f.pass_index == pass_index
        ]
        return sorted(crashes, key=lambda f: (f.at_fraction, f.data_node))

    def compute_node_crashes(self, pass_index: int) -> List[ComputeNodeCrash]:
        """Compute-node crashes firing in ``pass_index``, by crash fraction."""
        crashes = [
            f
            for f in self.schedule.of_type(ComputeNodeCrash)
            if f.pass_index == pass_index
        ]
        return sorted(crashes, key=lambda f: (f.at_fraction, f.compute_node))

    def link_factor(self, data_node: int, pass_index: int) -> float:
        """Communication-time multiplier for one data node in one pass."""
        factor = 1.0
        for f in self.schedule.of_type(LinkDegradation):
            if f.data_node == data_node and f.active(pass_index):
                factor *= f.factor
        return factor

    def slow_factor(self, compute_node: int, pass_index: int) -> float:
        """Local-reduction-time multiplier for one compute node."""
        factor = 1.0
        for f in self.schedule.of_type(SlowNode):
            if f.compute_node == compute_node and f.active(pass_index):
                factor *= f.factor
        return factor

    @property
    def checkpoints_enabled(self) -> bool:
        """Whether the runtime should checkpoint reduction objects."""
        return self.schedule.checkpoints_enabled

    # ------------------------------------------------------------------
    # Transient read errors
    # ------------------------------------------------------------------

    def chunk_failures(
        self, pass_index: int, data_node: int, num_chunks: int
    ) -> Dict[int, int]:
        """Failed-attempt counts per chunk position for one node's batch.

        Explicit :class:`ChunkReadError.failures` maps are taken verbatim
        (and may exhaust the retry budget — the runtime escalates).
        Rate-driven errors are drawn from a sub-seeded generator, capped
        at ``policy.max_failures`` so a storm of transient errors alone
        never kills a run.
        """
        failures: Dict[int, int] = {}
        rate = 0.0
        for spec in self.schedule.of_type(ChunkReadError):
            if not spec.applies(pass_index, data_node):
                continue
            if spec.failures is not None:
                for chunk, count in spec.failures.items():
                    if chunk < num_chunks:
                        failures[chunk] = max(failures.get(chunk, 0), count)
            # Independent rate sources combine as parallel failure odds.
            rate = 1.0 - (1.0 - rate) * (1.0 - spec.rate)
        if rate > 0.0:
            rng = random.Random(f"{self.seed}:transient:{pass_index}:{data_node}")
            for chunk in range(num_chunks):
                drawn = 0
                while drawn < self.policy.max_failures and rng.random() < rate:
                    drawn += 1
                if drawn:
                    failures[chunk] = max(failures.get(chunk, 0), drawn)
        return failures

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, data_nodes: int, compute_nodes: int) -> None:
        """Reject schedules naming nodes outside the run's configuration."""
        for f in self.schedule.of_type(DataNodeCrash):
            if f.data_node >= data_nodes:
                raise FaultError(
                    f"DataNodeCrash names data node {f.data_node}, but the "
                    f"run has only {data_nodes}"
                )
        for f in self.schedule.of_type(ComputeNodeCrash):
            if f.compute_node >= compute_nodes:
                raise FaultError(
                    f"ComputeNodeCrash names compute node {f.compute_node}, "
                    f"but the run has only {compute_nodes}"
                )
        for f in self.schedule.of_type(LinkDegradation):
            if f.data_node >= data_nodes:
                raise FaultError(
                    f"LinkDegradation names data node {f.data_node}, but the "
                    f"run has only {data_nodes}"
                )
        for f in self.schedule.of_type(ChunkReadError):
            if f.data_node is not None and f.data_node >= data_nodes:
                raise FaultError(
                    f"ChunkReadError names data node {f.data_node}, but the "
                    f"run has only {data_nodes}"
                )
        for f in self.schedule.of_type(SlowNode):
            if f.compute_node >= compute_nodes:
                raise FaultError(
                    f"SlowNode names compute node {f.compute_node}, but the "
                    f"run has only {compute_nodes}"
                )
        crashed = {f.compute_node for f in self.schedule.of_type(ComputeNodeCrash)}
        if len(crashed) >= compute_nodes:
            raise RecoveryExhaustedError(
                "the schedule crashes every compute node; at least one "
                "survivor is required"
            )
