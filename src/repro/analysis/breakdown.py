"""Component-share analysis: who dominates the execution time where.

The paper's discussion repeatedly reasons about which component dominates
("for an application where data retrieval cost is very high, the first
configuration pair may be preferable...").  This module computes the
disk/network/compute shares of a run — or a whole configuration sweep —
so those discussions can be checked against the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.middleware import FreerideGRuntime, KernelTrace
from repro.middleware.dataset import Dataset
from repro.middleware.api import GeneralizedReduction
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.trace import TimeBreakdown

__all__ = ["ComponentShares", "shares_of", "sweep_shares", "format_shares"]


@dataclass(frozen=True)
class ComponentShares:
    """Fractional composition of one execution's time."""

    label: str
    total: float
    disk: float
    network: float
    compute: float

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ConfigurationError("total time must be positive")

    @property
    def dominant(self) -> str:
        """The largest component ('disk', 'network' or 'compute')."""
        shares = {
            "disk": self.disk,
            "network": self.network,
            "compute": self.compute,
        }
        return max(sorted(shares), key=shares.__getitem__)


def shares_of(breakdown: TimeBreakdown, label: str = "") -> ComponentShares:
    """Component shares of one measured breakdown."""
    total = breakdown.total
    if total <= 0:
        raise ConfigurationError("cannot compute shares of a zero-time run")
    return ComponentShares(
        label=label,
        total=total,
        disk=breakdown.t_disk / total,
        network=breakdown.t_network / total,
        compute=breakdown.t_compute / total,
    )


def sweep_shares(
    app_factory,
    dataset: Dataset,
    configs: Sequence[RunConfig],
) -> List[ComponentShares]:
    """Execute a workload across configurations and report shares."""
    if not configs:
        raise ConfigurationError("need at least one configuration")
    out: List[ComponentShares] = []
    kernels = KernelTrace()
    for config in configs:
        app: GeneralizedReduction = app_factory()
        run = FreerideGRuntime(config, kernels=kernels).execute(app, dataset)
        out.append(shares_of(run.breakdown, label=config.label))
    return out


def format_shares(shares: Sequence[ComponentShares]) -> str:
    """Render a share sweep as an ASCII table."""
    if not shares:
        raise ConfigurationError("nothing to format")
    lines = [
        f"{'config':>8} {'total':>10} {'disk':>7} {'network':>8} "
        f"{'compute':>8}  dominant"
    ]
    for s in shares:
        lines.append(
            f"{s.label:>8} {s.total:9.4f}s {100 * s.disk:6.1f}% "
            f"{100 * s.network:7.1f}% {100 * s.compute:7.1f}%  {s.dominant}"
        )
    return "\n".join(lines)
