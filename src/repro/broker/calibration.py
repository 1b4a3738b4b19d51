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

At six-figure job counts :meth:`OnlineCalibrator.correct` is the
broker's hottest call (four factor lookups per candidate per decision),
so the current factor of every (component, app, resource) key is kept in
per-component read caches that :meth:`OnlineCalibrator.observe`
invalidates for exactly the three keys it touches.  The cached path is
bit-identical to scaling by :meth:`OnlineCalibrator.factor` — the
factors only change on ``observe`` — which the calibration property
suite asserts after arbitrary observation sequences.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.core.durable import (
    atomic_write_json,
    check_format_version,
    json_number,
    read_json_document,
)
from repro.core.models import PredictedBreakdown
from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = ["CorrectionFactor", "OnlineCalibrator"]

_FORMAT_VERSION = 1

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
    #: Read caches of current factor values, one per component, keyed by
    #: (app, resource).  Purely derived state: invalidated by observe().
    _fast: Dict[str, Dict[Tuple[str, str], float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        lo, hi = self.clamp
        if not 0.0 < lo < hi:
            raise ConfigurationError("clamp bounds must satisfy 0 < lo < hi")
        for component in COMPONENTS:
            self._fast.setdefault(component, {})

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
    def _fast_factor(self, component: str, app: str, resource: str) -> float:
        """Cached current factor; bit-identical to :meth:`factor`."""
        cache = self._fast[component]
        cache_key = (app, resource)
        value = cache.get(cache_key)
        if value is None:
            state = self._factors.get((component, app, resource))
            value = state.value if state is not None else 1.0
            cache[cache_key] = value
        return value

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
        :meth:`PredictedBreakdown.scaled` implements.  Served from the
        per-component read caches; bit-identical to scaling ``raw`` by
        the three :meth:`factor` values.
        """
        return raw.scaled(
            self._fast_factor("disk", app, replica_site),
            self._fast_factor(
                "network", app, f"{replica_site}->{compute_site}"
            ),
            self._fast_factor("compute", app, compute_site),
        )

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
        return (
            raw.t_disk * self._fast_factor("disk", app, replica_site)
            + raw.t_network
            * self._fast_factor(
                "network", app, f"{replica_site}->{compute_site}"
            )
            + raw.t_compute * self._fast_factor("compute", app, compute_site)
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
        Invalidates the read cache of exactly the three touched keys.
        """
        lo, hi = self.clamp
        alpha = self.alpha
        factors = self._factors
        fast = self._fast
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
            fast[component].pop((app, resource), None)

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

    # ------------------------------------------------------------------
    # Persistence (service warm restarts)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical-JSON-ready snapshot of the full calibration state.

        Unlike :meth:`snapshot` (a reporting view), this preserves the
        observation counts, so a reloaded calibrator resumes learning
        exactly where the saved one stopped.
        """
        return {
            "format_version": _FORMAT_VERSION,
            "alpha": self.alpha,
            "clamp": list(self.clamp),
            "factors": [
                {
                    "component": key[0],
                    "app": key[1],
                    "resource": key[2],
                    "value": self._factors[key].value,
                    "observations": self._factors[key].observations,
                }
                for key in sorted(self._factors)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OnlineCalibrator":
        """Rebuild a calibrator from :meth:`to_dict` output.

        Only state :meth:`observe` can produce loads: ``alpha`` and both
        clamp bounds finite numbers, every factor a finite number > 0,
        every observation count a non-negative integer.  Anything else
        is a :class:`ConfigurationError` naming the key — a ``NaN``
        factor would otherwise turn every calibrated prediction for that
        key into ``NaN``.
        """
        check_format_version(data, "calibration state", _FORMAT_VERSION)
        try:
            where = "calibration state: "
            lo, hi = data["clamp"]
            calibrator = cls(
                alpha=json_number("alpha", data["alpha"], where=where),
                clamp=(
                    json_number("clamp", lo, where=where),
                    json_number("clamp", hi, where=where),
                ),
            )
            for entry in data["factors"]:
                component = str(entry["component"])
                if component not in COMPONENTS:
                    raise ConfigurationError(
                        f"unknown calibration component '{component}'"
                    )
                key = (component, str(entry["app"]), str(entry["resource"]))
                where = f"calibration factor {'/'.join(key)}: "
                value = json_number("value", entry["value"], where=where)
                count = json_number(
                    "observations", entry["observations"], integer=True,
                    where=where,
                )
                if value <= 0.0:
                    raise ConfigurationError(
                        f"{where}'value' must be > 0, got {value!r}"
                    )
                if count < 0:
                    raise ConfigurationError(
                        f"{where}'observations' must be >= 0, got {count!r}"
                    )
                calibrator._factors[key] = CorrectionFactor(
                    value=value, observations=count
                )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigurationError(
                f"malformed calibration state: {exc}"
            ) from exc
        return calibrator

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Durably persist the calibration state as canonical JSON."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "OnlineCalibrator":
        """Load previously saved calibration state.

        Lets a restarted prediction service warm-start with everything
        the previous process learned instead of re-converging from 1.0
        factors over live traffic.
        """
        data = read_json_document(
            path,
            "calibration state",
            remedy="delete the file; calibration re-learns from traffic",
        )
        return cls.from_dict(data)
