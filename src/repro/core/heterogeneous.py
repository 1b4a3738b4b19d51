"""Cross-cluster prediction (Section 3.4 of the paper).

To predict on cluster B from a profile collected on cluster A, a small set
of representative FREERIDE-G applications is executed on *identical
configurations* (same storage/compute node counts, same dataset size) on
both clusters.  The per-component relative speedups

``s_d = mean(T_disk,app-B / T_disk,app-A)``   (and likewise ``s_n``, ``s_c``)

are averaged across the representative applications.  A prediction for a
new application is then made on cluster A for the target configuration and
rescaled componentwise:

``T̂_exec-B = s_d · T̂_disk-A + s_n · T̂_network-A + s_c · T̂_compute-A``

Because applications differ in operation mix, their true compute speedups
differ (0.233-0.370 in the paper); the averaged ``s_c`` is the dominant
source of cross-cluster prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from repro.core.models import PredictedBreakdown, PredictionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.core.units import Ratio
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "ComponentScalingFactors",
    "measure_scaling_factors",
    "CrossClusterPredictor",
]


@dataclass(frozen=True)
class ComponentScalingFactors:
    """Averaged componentwise speedups from cluster A to cluster B."""

    sd: Ratio  # data retrieval
    sn: Ratio  # data communication
    sc: Ratio  # data processing
    per_app: Dict[str, Tuple[float, float, float]] | None = None

    def __post_init__(self) -> None:
        for name in ("sd", "sn", "sc"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"scaling factor {name} must be > 0")


def _require_identical_configuration(a: Profile, b: Profile) -> None:
    if (
        a.data_nodes != b.data_nodes
        or a.compute_nodes != b.compute_nodes
        or a.dataset_bytes != b.dataset_bytes
    ):
        raise ConfigurationError(
            "scaling factors must be measured on identical configurations "
            f"(got {a.label}@{a.dataset_bytes:g} vs {b.label}@{b.dataset_bytes:g})"
        )


def measure_scaling_factors(
    pairs: Sequence[Tuple[Profile, Profile]],
) -> ComponentScalingFactors:
    """Average componentwise speedups over representative applications.

    ``pairs`` holds, per representative application, its profile on
    cluster A and its profile on cluster B, both on the same configuration
    and dataset size.
    """
    if not pairs:
        raise ConfigurationError("need at least one representative application")
    per_app: Dict[str, Tuple[float, float, float]] = {}
    sd = sn = sc = 0.0
    for prof_a, prof_b in pairs:
        _require_identical_configuration(prof_a, prof_b)
        if min(prof_a.t_disk, prof_a.t_network, prof_a.t_compute) <= 0:
            raise ConfigurationError(
                f"profile for '{prof_a.app}' has a zero component; cannot "
                "form componentwise ratios"
            )
        ratios = (
            prof_b.t_disk / prof_a.t_disk,
            prof_b.t_network / prof_a.t_network,
            prof_b.t_compute / prof_a.t_compute,
        )
        per_app[prof_a.app] = ratios
        sd += ratios[0]
        sn += ratios[1]
        sc += ratios[2]
    count = len(pairs)
    return ComponentScalingFactors(
        sd=sd / count, sn=sn / count, sc=sc / count, per_app=per_app
    )


class CrossClusterPredictor(PredictionModel):
    """Wraps a base model with Section 3.4's componentwise rescaling.

    ``predict`` first predicts the target configuration *as if it ran on
    the profile's clusters* (same n̂, ĉ, ŝ, b̂), then rescales each
    component by the measured factors.

    ``apply`` selects which components actually move to the new hardware.
    The paper's experiments relocate the whole deployment (repository and
    compute cluster together) — the default.  In mixed deployments only
    part of the stack changes: e.g. a job computing on the new cluster
    while still retrieving from the old repository over the same network
    should rescale only the compute component (``apply=("compute",)``).
    """

    label = "cross-cluster"

    _COMPONENTS = ("disk", "network", "compute")

    def __init__(
        self,
        base_model: PredictionModel,
        factors: ComponentScalingFactors,
        apply: Sequence[str] = _COMPONENTS,
    ) -> None:
        unknown = set(apply) - set(self._COMPONENTS)
        if unknown:
            raise ConfigurationError(
                f"unknown components {sorted(unknown)}; "
                f"expected a subset of {self._COMPONENTS}"
            )
        if not apply:
            raise ConfigurationError("apply must name at least one component")
        self.base_model = base_model
        self.factors = factors
        self.apply = tuple(apply)

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        # The equations read only the target's slot counts and cluster A's
        # comm-model fit, so A takes on B's size and SMP width instead of
        # refusing a shape only B can host.
        config = target.config
        same_cluster_config = config.with_clusters(
            profile.storage_cluster.with_nodes(config.storage_cluster.num_nodes),
            replace(
                profile.compute_cluster,
                num_nodes=config.compute_cluster.num_nodes,
                smp_width=config.compute_cluster.smp_width,
            ),
        )
        target_on_a = replace(target, config=same_cluster_config)
        on_a = self.base_model.predict(profile, target_on_a)
        return on_a.scaled(
            self.factors.sd if "disk" in self.apply else 1.0,
            self.factors.sn if "network" in self.apply else 1.0,
            self.factors.sc if "compute" in self.apply else 1.0,
        )
