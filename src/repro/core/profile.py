"""The profile artefact: everything a prediction is based on.

Section 3.1 of the paper — "predictions have to be based on a profile,
which is collected by executing the application on one dataset and one
execution configuration".  The summary information comprises:

- the configuration: storage nodes ``n``, compute nodes ``c``, bandwidth
  ``b``, and dataset size ``s``;
- the breakdown of execution time into data retrieval, network
  communication and processing components (``t_d``, ``t_n``, ``t_c``);
- the maximum reduction-object size;
- the reduction-object communication time ``T_ro`` and global-reduction
  time ``T_g`` on the profile configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

from repro.core.units import Bytes, BytesPerSecond, Seconds
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.trace import TimeBreakdown

__all__ = ["Profile"]


@dataclass(frozen=True)
class Profile:
    """Summary information from one profile execution."""

    app: str
    storage_cluster: ClusterSpec
    compute_cluster: ClusterSpec
    data_nodes: int
    compute_nodes: int
    bandwidth: BytesPerSecond
    dataset_bytes: Bytes
    t_disk: Seconds
    t_network: Seconds
    t_compute: Seconds
    t_ro: Seconds
    t_g: Seconds
    max_object_bytes: Bytes
    broadcast_bytes: Bytes = 0.0
    gather_rounds: int = 1
    processes_per_node: int = 1
    t_cache: Seconds = 0.0
    metadata: Dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.data_nodes <= 0 or self.compute_nodes <= 0:
            raise ConfigurationError("profile node counts must be positive")
        # Written so that NaN, which passes every ``<`` guard, fails.
        for name in ("dataset_bytes", "bandwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"profile {name} must be positive and finite"
                )
        for name in (
            "t_disk", "t_network", "t_compute", "t_ro", "t_g", "t_cache",
            "max_object_bytes", "broadcast_bytes",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"profile {name} must be finite and >= 0")
        if self.t_ro + self.t_g + self.t_cache > self.t_compute + 1e-12:
            raise ConfigurationError(
                "T_ro + T_g + cache time cannot exceed the processing component"
            )
        if self.gather_rounds <= 0:
            raise ConfigurationError("gather_rounds must be positive")
        if self.processes_per_node <= 0:
            raise ConfigurationError("processes_per_node must be positive")

    @property
    def total(self) -> Seconds:
        """Profile execution time (``t_d + t_n + t_c``)."""
        return self.t_disk + self.t_network + self.t_compute

    @property
    def label(self) -> str:
        """The paper's 'n-c' notation for the profile configuration."""
        return f"{self.data_nodes}-{self.compute_nodes}"

    @property
    def compute_slots(self) -> int:
        """Total parallel reduction slots on the profile configuration."""
        return self.compute_nodes * self.processes_per_node

    @property
    def scalable_compute(self) -> Seconds:
        """``T'' = t_c - T_ro - T_g`` — the parallelizable processing time."""
        return max(self.t_compute - self.t_ro - self.t_g, 0.0)

    @classmethod
    def from_run(cls, config: RunConfig, breakdown: TimeBreakdown) -> "Profile":
        """Build a profile from a middleware execution's breakdown."""
        meta = breakdown.metadata
        return cls(
            app=str(meta.get("app", "unknown")),
            storage_cluster=config.storage_cluster,
            compute_cluster=config.compute_cluster,
            data_nodes=config.data_nodes,
            compute_nodes=config.compute_nodes,
            bandwidth=config.bandwidth,
            dataset_bytes=float(meta["dataset_nbytes"]),
            t_disk=breakdown.t_disk,
            t_network=breakdown.t_network,
            t_compute=breakdown.t_compute,
            t_ro=breakdown.t_ro,
            t_g=breakdown.t_g,
            max_object_bytes=breakdown.max_reduction_object_bytes,
            broadcast_bytes=float(meta.get("broadcast_nbytes", 0.0)),
            gather_rounds=int(meta.get("gather_rounds", 1)),
            processes_per_node=int(meta.get("processes_per_node", 1)),
            t_cache=breakdown.t_cache,
            metadata=dict(meta),
        )
