"""Named trace presets fitted to published grid-workload shapes.

The Grid Workloads Archive characterizations (Iosup et al.) and the
Guazzone-style per-VO fits agree on the qualitative shape of production
grid load: a few virtual organisations dominate submissions, their
interarrivals are bursty (Weibull with shape < 1, or lognormal), the
load breathes with day and week cycles, and job weight is heavy-tailed.
These presets transplant that shape onto the simulator's model units —
"days" compressed so a 100k-job trace spans a few simulated hours —
with every distribution parameter spelled out, so a preset is just a
:class:`TraceSpec` value anyone can fork and tweak.

Scale discipline: every preset takes ``(count, seed)`` and scales its
interarrival means so the offered load stays roughly constant per
job — a 1M-job trace is a longer campaign, not a denser one.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.distributions import DistributionSpec
from repro.workloads.traces.spec import DiurnalSpec, TraceSpec, VoSpec

__all__ = ["TRACE_PRESETS", "make_preset"]

#: Mean model-seconds between arrivals, per VO weight unit, shared by
#: the presets so their offered load is comparable.
_BASE_GAP = 0.004


def _poisson(count: int, seed: int) -> TraceSpec:
    """The classic single-VO Poisson stream, as a trace spec.

    Demonstrates that the legacy ``StreamSpec`` world is one point in
    the trace space: one VO, exponential interarrivals, no modulation.
    """
    return TraceSpec(
        name="poisson",
        count=count,
        seed=seed,
        vos=(
            VoSpec(
                name="default",
                interarrival=DistributionSpec.exponential(_BASE_GAP),
                mix=(
                    ("kmeans", None, 2.0),
                    ("knn", "350 MB", 1.5),
                    ("vortex", None, 1.0),
                    ("kmeans", "350 MB", 1.0),
                    ("knn", None, 1.0),
                ),
                priorities=(0, 1, 2),
                priority_weights=(4.0, 2.0, 1.0),
            ),
        ),
    )


def _gwa_mixed(count: int, seed: int) -> TraceSpec:
    """Three VOs with GWA-style bursty fits under a diurnal cycle.

    The dominant VO submits in Weibull bursts (shape 0.64 — the
    LCG-style fit), a mid-size VO follows a lognormal daytime pattern,
    and a long-tail VO trickles Pareto-spaced heavy jobs with
    deadlines.  A compressed day (an eighth of the expected trace span)
    modulates all three at 35% daily / 15% weekly amplitude.
    """
    span = count * _BASE_GAP
    return TraceSpec(
        name="gwa-mixed",
        count=count,
        seed=seed,
        vos=(
            VoSpec(
                name="atlas",
                weight=5.0,
                # Weibull mean = scale * gamma(1 + 1/shape); at shape
                # 0.64, gamma(2.5625) ~ 1.3897, so dividing the target
                # gap by it keeps the offered load at ~_BASE_GAP/unit.
                interarrival=DistributionSpec.weibull(
                    0.64, _BASE_GAP / 1.3897
                ),
                mix=(
                    ("kmeans", None, 3.0),
                    ("kmeans", "350 MB", 2.0),
                    ("knn", "350 MB", 2.0),
                    ("knn", None, 1.0),
                ),
                priorities=(0, 1),
                priority_weights=(3.0, 1.0),
            ),
            VoSpec(
                name="cms",
                weight=3.0,
                # Lognormal mean = exp(mu + sigma^2/2); sigma 0.9 gives
                # the daytime burstiness, mu re-centres the mean.
                interarrival=DistributionSpec.lognormal(-5.9259, 0.9),
                mix=(
                    ("em", "350 MB", 2.0),
                    ("knn", "350 MB", 1.5),
                    ("vortex", None, 1.0),
                ),
                priorities=(0, 1, 2),
                priority_weights=(2.0, 2.0, 1.0),
            ),
            VoSpec(
                name="biomed",
                weight=1.0,
                # Pareto tail index 1.8 keeps the mean finite
                # (shape*scale/(shape-1) = 2.25*scale) but the tail
                # heavy — long gaps, then a burst of weighty jobs.
                interarrival=DistributionSpec.pareto(
                    1.8, _BASE_GAP / 2.25
                ),
                mix=(
                    ("em", "1.4 GB", 1.0),
                    ("vortex", None, 1.0),
                    ("kmeans", "1.4 GB", 1.0),
                ),
                deadline_fraction=0.5,
                deadline_slack=(2.0, 6.0),
                priorities=(1, 2),
                priority_weights=(1.0, 1.0),
            ),
        ),
        modulation=DiurnalSpec(
            day_seconds=max(span / 8.0, 1.0),
            amplitude=0.35,
            phase=0.0,
            week_amplitude=0.15,
        ),
    )


def _heavy_tail(count: int, seed: int) -> TraceSpec:
    """A single-VO stress preset: Pareto gaps, large-volume mixes.

    The burst/lull structure drives the broker's wait queue to its peak
    depths, which exercises the heap event and wait queues honestly.
    """
    return TraceSpec(
        name="heavy-tail",
        count=count,
        seed=seed,
        vos=(
            VoSpec(
                name="batch",
                interarrival=DistributionSpec.pareto(
                    1.5, _BASE_GAP / 3.0
                ),
                mix=(
                    ("em", "1.4 GB", 2.0),
                    ("vortex", None, 2.0),
                    ("kmeans", "1.4 GB", 1.0),
                    ("knn", "1.4 GB", 1.0),
                ),
                priorities=(0, 1),
                priority_weights=(1.0, 1.0),
            ),
        ),
    )


TRACE_PRESETS: Mapping[str, Callable[[int, int], TraceSpec]] = {
    "poisson": _poisson,
    "gwa-mixed": _gwa_mixed,
    "heavy-tail": _heavy_tail,
}


def make_preset(name: str, count: int, seed: int = 0) -> TraceSpec:
    """The named preset's :class:`TraceSpec` at the given scale."""
    factory = TRACE_PRESETS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown trace preset '{name}'; known: "
            + ", ".join(sorted(TRACE_PRESETS))
        )
    return factory(count, seed)
