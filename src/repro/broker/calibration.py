"""Online calibration of component predictions from observed runs.

Vazhkudai & Schopf predict wide-area data-transfer times by regressing
on the *history* of observed transfers rather than trusting a static
model.  The broker applies the same idea to all three components of the
paper's additive model: after every completed job it compares the actual
``T_disk`` / ``T_network`` / ``T_compute`` against the model's raw
prediction and maintains a multiplicative correction factor per
(application, resource) key via an exponentially-weighted update — the
scalar steady-state form of that regression:

    f  <-  f + alpha * (actual / predicted - f)

Components are keyed by the resource that determines them:

- ``disk``    by (app, replica site)  — retrieval runs on the repository;
- ``network`` by (app, replica site -> compute site) — the path;
- ``compute`` by (app, compute site)  — processing hardware.

A fresh key starts at factor 1.0 (the uncalibrated model).  Because the
factors multiply the *prediction*, systematic model bias — most visibly
the cross-cluster case where a profile from one machine type predicts
another without measured scaling factors — is learned away over the job
stream, which is exactly what the broker benchmark asserts.

At six-figure job counts :meth:`OnlineCalibrator.correct_total` is the
broker's hottest call (three factor lookups per candidate per
decision); it reads the factor table directly, one dict lookup per
component, so there is no derived state to keep in step with
:meth:`OnlineCalibrator.observe`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.models import PredictedBreakdown
from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = ["CorrectionFactor", "OnlineCalibrator"]

#: Components the calibrator corrects, in reporting order.
COMPONENTS = ("disk", "network", "compute")

#: Predicted component times below this are treated as "no signal":
#: a ratio against a near-zero prediction is numerically meaningless.
_MIN_PREDICTED = 1e-12


@dataclass
class CorrectionFactor:
    """State of one (component, app, resource) correction."""

    value: float = 1.0
    observations: int = 0

    def update(self, ratio: float, alpha: float) -> None:
        self.value += alpha * (ratio - self.value)
        self.observations += 1


#: Factor keys are plain ``(component, app, resource)`` tuples — the
#: cheapest hashable the hot observe/correct path can build.
_Key = Tuple[str, str, str]


@dataclass
class OnlineCalibrator:
    """Per-(app, site) multiplicative correction of predicted breakdowns.

    Parameters
    ----------
    alpha:
        Exponential weight of the newest observation (0 < alpha <= 1).
        Higher alpha adapts faster but is noisier.
    clamp:
        Bounds applied to each observed actual/predicted ratio before the
        update, so one pathological run cannot poison a factor.
    """

    alpha: float = 0.3
    clamp: Tuple[float, float] = (0.1, 10.0)
    _factors: Dict[_Key, CorrectionFactor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        lo, hi = self.clamp
        if not 0.0 < lo < hi:
            raise ConfigurationError("clamp bounds must satisfy 0 < lo < hi")

    # ------------------------------------------------------------------

    @staticmethod
    def _resources(
        replica_site: str, compute_site: str
    ) -> Dict[str, str]:
        return {
            "disk": replica_site,
            "network": f"{replica_site}->{compute_site}",
            "compute": compute_site,
        }

    def factor(
        self, component: str, app: str, replica_site: str, compute_site: str
    ) -> float:
        """Current correction factor (1.0 when never observed)."""
        if component not in COMPONENTS:
            raise ConfigurationError(f"unknown component '{component}'")
        resource = self._resources(replica_site, compute_site)[component]
        state = self._factors.get((component, app, resource))
        return state.value if state is not None else 1.0

    @hot
    def _values(
        self, app: str, replica_site: str, compute_site: str
    ) -> Tuple[float, float, float]:
        """The (disk, network, compute) factors of one placement, read
        from the factor table exactly as :meth:`factor` reads them."""
        factors = self._factors
        disk = factors.get(("disk", app, replica_site))
        network = factors.get(
            ("network", app, f"{replica_site}->{compute_site}")
        )
        compute = factors.get(("compute", app, compute_site))
        return (
            1.0 if disk is None else disk.value,
            1.0 if network is None else network.value,
            1.0 if compute is None else compute.value,
        )

    @hot
    def correct(
        self,
        app: str,
        replica_site: str,
        compute_site: str,
        raw: PredictedBreakdown,
    ) -> PredictedBreakdown:
        """Apply the current factors to a raw model prediction.

        ``T_ro``/``T_g`` ride the compute factor (they are sub-terms of
        the processing component), which is what
        :meth:`PredictedBreakdown.scaled` implements.
        """
        return raw.scaled(*self._values(app, replica_site, compute_site))

    def correct_total(
        self,
        app: str,
        replica_site: str,
        compute_site: str,
        raw: PredictedBreakdown,
    ) -> float:
        """Calibrated predicted total as a bare scalar.

        Bit-identical to ``correct(...).total``: the three products and
        the left-to-right sum are the exact IEEE operations
        :meth:`PredictedBreakdown.scaled` followed by
        :attr:`PredictedBreakdown.total` performs, without materializing
        the intermediate breakdown.  The broker's placement loop scores
        every feasible candidate with this before building a
        :class:`~repro.broker.policies.PlacementOption` for the winner
        alone.
        """
        disk, network, compute = self._values(app, replica_site, compute_site)
        return (
            raw.t_disk * disk
            + raw.t_network * network
            + raw.t_compute * compute
        )

    def observe(
        self,
        app: str,
        replica_site: str,
        compute_site: str,
        raw: PredictedBreakdown,
        actual: Tuple[float, float, float],
    ) -> None:
        """Fold one completed run into the factors.

        ``actual`` is the observed ``(t_disk, t_network, t_compute)``.
        Components whose raw prediction carries no signal are skipped.
        """
        lo, hi = self.clamp
        alpha = self.alpha
        factors = self._factors
        path = f"{replica_site}->{compute_site}"
        for component, resource, p, a in (
            ("disk", replica_site, raw.t_disk, actual[0]),
            ("network", path, raw.t_network, actual[1]),
            ("compute", compute_site, raw.t_compute, actual[2]),
        ):
            if p < _MIN_PREDICTED or a < 0.0:
                continue
            ratio = min(max(a / p, lo), hi)
            key = (component, app, resource)
            state = factors.get(key)
            if state is None:
                state = factors[key] = CorrectionFactor()
            state.update(ratio, alpha)

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Factors keyed ``component -> 'app @ resource' -> value`` (sorted)."""
        out: Dict[str, Dict[str, float]] = {}
        for component, app, resource in sorted(self._factors):
            out.setdefault(component, {})[
                f"{app} @ {resource}"
            ] = self._factors[(component, app, resource)].value
        return out

    @property
    def total_observations(self) -> int:
        return sum(f.observations for f in self._factors.values())
