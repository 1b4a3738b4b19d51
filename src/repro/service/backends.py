"""Backend evaluation with modeled cost and deterministic fault injection.

The service never calls the prediction core directly: every evaluation
goes through a :class:`ServiceBackend`, which (a) prices the request a
deterministic *modeled cost* — what the resilience pipeline budgets
against and a virtual clock charges — and (b) optionally consults a
seeded :class:`ServiceFaultInjector` that makes the backend slow,
crashing, or corrupt for chaos campaigns.  The same seed always
produces the same fault sequence, which is what makes a (seed,
scenario) replay of the recorded request log byte-identical.

Corrupt responses deserve emphasis: a backend that *returns garbage* is
more dangerous than one that crashes, because garbage can be cached and
served for hours.  :func:`validate_breakdown` is the service's tasting
ritual — every payload is validated before it is cached or served, and
a corrupt one is classified as a backend failure exactly like a crash.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.journal import CampaignJournal
from repro.core.models import PredictedBreakdown, PredictionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.core.whatif import ConfigurationForecast, sweep_configurations
from repro.middleware.scheduler import RunConfig
from repro.service.errors import BackendCrashError, CorruptResponseError
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "ServiceCostModel",
    "BackendFaultSpec",
    "BackendFault",
    "ServiceFaultInjector",
    "ServiceBackend",
    "validate_breakdown",
    "breakdown_to_dict",
]


@dataclass(frozen=True)
class ServiceCostModel:
    """Modeled seconds of backend work per endpoint unit.

    The price list of simulated time — the service analogue of the
    simulator's per-chunk costs.  Under a ``VirtualClock`` an attempt is
    charged its price, so deadline budgets are evaluated against these;
    under a ``MonotonicClock`` an attempt is charged the time it took
    and a price is only the pre-admission estimate, a conservative upper
    bound (DESIGN.md §15).
    """

    predict_s: float = 0.004
    whatif_pair_s: float = 0.0015
    status_s: float = 0.001

    def __post_init__(self) -> None:
        for name in ("predict_s", "whatif_pair_s", "status_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class BackendFaultSpec:
    """Per-call fault probabilities of one chaos scenario."""

    slow_probability: float = 0.0
    crash_probability: float = 0.0
    corrupt_probability: float = 0.0
    slow_factor: Tuple[float, float] = (2.0, 8.0)

    def __post_init__(self) -> None:
        for name in (
            "slow_probability", "crash_probability", "corrupt_probability",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        total = (
            self.slow_probability
            + self.crash_probability
            + self.corrupt_probability
        )
        if total > 1.0:
            raise ConfigurationError(
                f"fault probabilities sum to {total}; must be <= 1"
            )
        lo, hi = self.slow_factor
        if not 1.0 <= lo <= hi:
            raise ConfigurationError("slow_factor must satisfy 1 <= lo <= hi")


@dataclass(frozen=True)
class BackendFault:
    """One injected fault: ``kind`` in {slow, crash, corrupt}."""

    kind: str
    slow_factor: float = 1.0


class ServiceFaultInjector:
    """Seeded per-call fault draws with a fixed draw order.

    Each backend call consumes exactly one uniform draw (plus one more
    for the slow factor when the slow branch is taken), so the fault
    sequence is a pure function of ``(seed, spec, call index)`` — the
    replay format of the service chaos harness.
    """

    def __init__(self, seed: int, spec: BackendFaultSpec) -> None:
        self.seed = seed
        self.spec = spec
        self._rng = random.Random(seed)
        self.calls = 0
        self.injected: Dict[str, int] = {"slow": 0, "crash": 0, "corrupt": 0}

    def draw(self) -> Optional[BackendFault]:
        self.calls += 1
        spec = self.spec
        u = self._rng.random()
        if u < spec.crash_probability:
            self.injected["crash"] += 1
            return BackendFault("crash")
        if u < spec.crash_probability + spec.corrupt_probability:
            self.injected["corrupt"] += 1
            return BackendFault("corrupt")
        if (
            u
            < spec.crash_probability
            + spec.corrupt_probability
            + spec.slow_probability
        ):
            factor = self._rng.uniform(*spec.slow_factor)
            self.injected["slow"] += 1
            return BackendFault("slow", slow_factor=factor)
        return None


def validate_breakdown(breakdown: PredictedBreakdown) -> None:
    """Refuse non-finite or negative component times.

    Raises :class:`CorruptResponseError` — the service treats it as a
    backend failure; the payload is never cached or served.
    """
    for name in ("t_disk", "t_network", "t_compute", "t_ro", "t_g"):
        value = getattr(breakdown, name)
        if not math.isfinite(value) or value < 0.0:
            raise CorruptResponseError(
                f"corrupt prediction: {name}={value!r} is not a finite "
                "non-negative time"
            )


def breakdown_to_dict(breakdown: PredictedBreakdown) -> Dict[str, float]:
    """JSON-ready component map of a predicted breakdown."""
    return {
        "t_disk": breakdown.t_disk,
        "t_network": breakdown.t_network,
        "t_compute": breakdown.t_compute,
        "t_ro": breakdown.t_ro,
        "t_g": breakdown.t_g,
        "total": breakdown.total,
    }


class ServiceBackend:
    """The service's only door to the prediction core.

    Every method returns ``(payload, cost_s)`` where ``cost_s`` is the
    modeled backend time for this call, after any injected slow-down.
    Crash faults raise :class:`BackendCrashError` carrying the cost of
    the failed attempt; corrupt faults poison the payload so that
    validation (here, before returning) classifies them.
    """

    def __init__(
        self,
        cost_model: Optional[ServiceCostModel] = None,
        injector: Optional[ServiceFaultInjector] = None,
    ) -> None:
        self.cost_model = cost_model or ServiceCostModel()
        self.injector = injector
        self.calls = 0

    def _fault(self, base_cost_s: float) -> Tuple[Optional[str], float]:
        """Draw one fault; returns (corrupt?, adjusted cost)."""
        self.calls += 1
        if self.injector is None:
            return None, base_cost_s
        fault = self.injector.draw()
        if fault is None:
            return None, base_cost_s
        if fault.kind == "crash":
            raise BackendCrashError(
                "backend crashed mid-evaluation", cost_s=base_cost_s
            )
        if fault.kind == "slow":
            return None, base_cost_s * fault.slow_factor
        return "corrupt", base_cost_s

    # ------------------------------------------------------------------

    def predict(
        self,
        model: PredictionModel,
        profile: Profile,
        target: PredictionTarget,
    ) -> Tuple[Dict[str, float], float]:
        corrupt, cost = self._fault(self.cost_model.predict_s)
        breakdown = model.predict(profile, target)
        if corrupt:
            breakdown = PredictedBreakdown(
                t_disk=float("nan"),
                t_network=breakdown.t_network,
                t_compute=breakdown.t_compute,
            )
        try:
            validate_breakdown(breakdown)
        except CorruptResponseError as exc:
            exc.cost_s = cost
            raise
        return breakdown_to_dict(breakdown), cost

    def whatif(
        self,
        model: PredictionModel,
        profile: Profile,
        template: RunConfig,
        pairs: Sequence[Tuple[int, int]],
    ) -> Tuple[List[Dict[str, Any]], float]:
        base = self.cost_model.whatif_pair_s * max(1, len(pairs))
        corrupt, cost = self._fault(base)
        forecasts: List[ConfigurationForecast] = sweep_configurations(
            profile, model, template, pairs
        )
        totals = [f.predicted_total for f in forecasts]
        if corrupt and totals:
            totals[0] = float("nan")
        for total in totals:
            if not math.isfinite(total) or total < 0.0:
                exc = CorruptResponseError(
                    f"corrupt what-if sweep: predicted total {total!r}"
                )
                exc.cost_s = cost
                raise exc
        payload = [
            {
                "data_nodes": f.data_nodes,
                "compute_nodes": f.compute_nodes,
                "label": f.label,
                "node_cost": f.node_cost,
                "predicted_total": total,
            }
            for f, total in zip(forecasts, totals)
        ]
        return payload, cost

    def campaign_status(
        self, journal_path: str
    ) -> Tuple[Dict[str, Any], float]:
        corrupt, cost = self._fault(self.cost_model.status_s)
        if corrupt:
            exc = CorruptResponseError(
                "corrupt campaign journal read: record checksum mismatch"
            )
            exc.cost_s = cost
            raise exc
        journal = CampaignJournal(journal_path)
        if not journal.exists:
            return {"exists": False, "settled": 0, "by_status": {}}, cost
        records = journal.load()
        by_status: Dict[str, int] = {}
        for record in records.values():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "exists": True,
            "settled": len(records),
            "by_status": {k: by_status[k] for k in sorted(by_status)},
        }, cost
