"""Trace workload specs: per-VO submission mixes under diurnal load.

A :class:`TraceSpec` is the seeded recipe for a realistic job trace:

- each :class:`VoSpec` is one virtual organisation with its own
  interarrival distribution (any :class:`DistributionSpec` — Weibull
  and lognormal fits are the GWA norm), workload/dataset mix, deadline
  behaviour, and priority distribution;
- ``weight`` splits the total job count across VOs (largest-remainder
  apportionment, so counts are exact and deterministic);
- an optional :class:`DiurnalSpec` modulates every VO's arrival rate
  with day and week cycles, the way production grid traces breathe.

Specs are frozen, validate eagerly, and round-trip through plain dicts,
so a trace artifact can embed the full generator provenance next to the
jobs it produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.durable import json_field, json_value
from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.distributions import DistributionSpec

__all__ = ["DiurnalSpec", "VoSpec", "TraceSpec", "StreamSpec", "Mix"]

#: ``(workload, size-or-None, weight)`` triples (``VoSpec`` and ``StreamSpec``).
Mix = Tuple[Tuple[str, Optional[str], float], ...]

_DEFAULT_MIX: Mix = (
    ("kmeans", None, 1.0),
    ("knn", None, 1.0),
    ("vortex", None, 1.0),
)


@dataclass(frozen=True)
class DiurnalSpec:
    """Deterministic day/week rate modulation of an arrival process.

    The instantaneous rate factor at simulated time ``t`` is::

        (1 + amplitude * sin(2*pi*(t - phase)/day_seconds))
        * (1 + week_amplitude * sin(2*pi*(t - phase)/(7*day_seconds)))

    Amplitudes live in ``[0, 1)`` so the factor stays strictly positive;
    a raw interarrival gap ``g`` drawn at time ``t`` stretches to
    ``g / rate_factor(t)`` — rush hours compress gaps, nights dilate
    them.  ``day_seconds`` is in the simulator's model units, so short
    broker experiments can use compressed "days".
    """

    day_seconds: float = 86400.0
    amplitude: float = 0.0
    phase: float = 0.0
    week_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.day_seconds < math.inf:
            raise ConfigurationError("diurnal day_seconds must be positive and finite")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("diurnal amplitude must be in [0, 1)")
        if not 0.0 <= self.week_amplitude < 1.0:
            raise ConfigurationError(
                "diurnal week_amplitude must be in [0, 1)"
            )

    def rate_factor(self, t: float) -> float:
        """The strictly positive rate multiplier at time ``t``."""
        day = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / self.day_seconds
        )
        week = 1.0 + self.week_amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / (7.0 * self.day_seconds)
        )
        return day * week

    def to_dict(self) -> Dict[str, Any]:
        return {
            "day_seconds": self.day_seconds,
            "amplitude": self.amplitude,
            "phase": self.phase,
            "week_amplitude": self.week_amplitude,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "DiurnalSpec":
        defaults = cls().to_dict()
        return cls(**{
            key: json_field(doc, key, float, default, where="modulation: ")
            for key, default in defaults.items()
        })


def _parse_mix(entries: Sequence[Any], where: str) -> Mix:
    """``[[workload, size-or-null, weight], ...]`` with size and weight
    optional; anything else is an error naming the entry."""
    mix: List[Tuple[str, Optional[str], float]] = []
    for index, entry in enumerate(entries):
        name = f"mix[{index}]"
        if not 1 <= len(entry) <= 3:
            raise ConfigurationError(
                f"{where}'{name}' must be a [workload, size, weight] list, "
                f"got {entry!r:.40}"
            )
        size = entry[1] if len(entry) > 1 else None
        weight = entry[2] if len(entry) > 2 else 1.0
        mix.append((
            json_value(f"{name}[0]", entry[0], str, where=where),
            None if size is None else json_value(f"{name}[1]", size, str, where=where),
            json_value(f"{name}[2]", weight, float, where=where),
        ))
    return tuple(mix)


#: The list fields of :func:`_submissions` and the JSON kind of their items.
_SUBMISSION_LISTS = (
    ("mix", list), ("deadline_slack", float), ("priorities", int),
    ("priority_weights", float),
)


def _submissions(doc: Mapping[str, Any], where: str) -> Dict[str, Any]:
    """The fields ``VoSpec`` and ``StreamSpec`` share, as constructor
    keywords; an absent list keeps the class default."""
    kwargs: Dict[str, Any] = {
        "deadline_fraction": json_field(
            doc, "deadline_fraction", float, 0.0, where=where
        ),
    }
    for key, of in _SUBMISSION_LISTS:
        if key in doc:
            kwargs[key] = tuple(json_field(doc, key, list, of=of, where=where))
    if "mix" in kwargs:
        kwargs["mix"] = _parse_mix(kwargs["mix"], where)
    slack = kwargs.get("deadline_slack")
    if slack is not None and len(slack) != 2:
        raise ConfigurationError(
            f"{where}'deadline_slack' must be a [lo, hi] pair"
        )
    return kwargs


@dataclass(frozen=True)
class VoSpec:
    """One virtual organisation's submission behaviour.

    ``weight`` is this VO's share of the trace's total job count;
    ``interarrival`` draws the gaps between its consecutive submissions.
    The remaining fields mean exactly what they do on ``StreamSpec`` —
    the stream generator is the single-VO Poisson special case.
    """

    name: str
    weight: float = 1.0
    interarrival: DistributionSpec = DistributionSpec.exponential(0.1)
    mix: Mix = _DEFAULT_MIX
    deadline_fraction: float = 0.0
    deadline_slack: Tuple[float, float] = (1.5, 3.0)
    priorities: Tuple[int, ...] = (0,)
    priority_weights: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("VOs need a non-empty name")
        if self.weight <= 0:
            raise ConfigurationError(
                f"VO '{self.name}': weight must be positive"
            )
        _check_submissions(f"VO '{self.name}': ", self)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "weight": self.weight,
            "interarrival": self.interarrival.to_dict(),
            "mix": [list(entry) for entry in self.mix],
            "deadline_fraction": self.deadline_fraction,
            "deadline_slack": list(self.deadline_slack),
            "priorities": list(self.priorities),
        }
        if self.priority_weights:
            doc["priority_weights"] = list(self.priority_weights)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "VoSpec":
        name = json_field(doc, "name", str, where="VO spec: ")
        where = f"VO '{name:.40}': "
        kwargs: Dict[str, Any] = {
            "name": name,
            "weight": json_field(doc, "weight", float, 1.0, where=where),
            **_submissions(doc, where),
        }
        if "interarrival" in doc:
            kwargs["interarrival"] = DistributionSpec.from_dict(
                json_field(doc, "interarrival", dict, where=where)
            )
        return cls(**kwargs)


def _check_weights(what: str, weights: Sequence[float]) -> None:
    """Positive with a finite total: ``realize_jobs`` divides by it."""
    if not all(0 < weight for weight in weights) or not sum(weights) < math.inf:
        raise ConfigurationError(f"{what} must be positive with a finite sum")


def _check_submissions(where: str, spec: Any) -> None:
    """The mix, deadline and priority fields of a ``VoSpec`` or ``StreamSpec``."""
    if not spec.mix:
        raise ConfigurationError(f"{where}needs a non-empty workload mix")
    _check_weights(f"{where}mix weights", [w for _, _, w in spec.mix])
    if not 0.0 <= spec.deadline_fraction <= 1.0:
        raise ConfigurationError(f"{where}deadline fraction must be in [0, 1]")
    lo, hi = spec.deadline_slack
    if not 0.0 < lo <= hi:
        raise ConfigurationError(f"{where}deadline slack must satisfy 0 < lo <= hi")
    if not spec.priorities:
        raise ConfigurationError(f"{where}priorities must be non-empty")
    if spec.priority_weights and len(spec.priority_weights) != len(spec.priorities):
        raise ConfigurationError(
            f"{where}priority_weights must match priorities in length"
        )
    _check_weights(f"{where}priority_weights", spec.priority_weights)


#: Largest job count a spec may ask for — a hundred times the biggest
#: trace the benchmarks broker, and refused before any array is sized
#: from it.
MAX_TRACE_JOBS = 10_000_000


def _check_count_and_seed(what: str, count: int, seed: int) -> None:
    """Refuse a job count or seed NumPy would reject with a traceback."""
    if count <= 0:
        raise ConfigurationError(f"{what} count must be positive")
    if count > MAX_TRACE_JOBS:
        raise ConfigurationError(
            f"{what} count must be at most {MAX_TRACE_JOBS}, got {count}"
        )
    if seed < 0:
        raise ConfigurationError(f"{what} seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class TraceSpec:
    """The full seeded recipe for one trace workload.

    ``count`` is the total job count across all VOs.  Each VO draws from
    its own child generator seeded ``[seed, vo_index]`` (NumPy seed
    sequences), so adding a VO or resizing one never perturbs another
    VO's draws.
    """

    name: str
    count: int
    seed: int = 0
    vos: Tuple[VoSpec, ...] = (VoSpec("default"),)
    modulation: Optional[DiurnalSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace specs need a non-empty name")
        _check_count_and_seed("trace", self.count, self.seed)
        if not self.vos:
            raise ConfigurationError("trace needs at least one VO")
        weights = [vo.weight * self.count for vo in self.vos]
        _check_weights("VO weights times count", weights)
        names = [vo.name for vo in self.vos]
        if len(set(names)) != len(names):
            raise ConfigurationError("VO names must be unique within a trace")

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "seed": self.seed,
            "vos": [vo.to_dict() for vo in self.vos],
        }
        if self.modulation is not None:
            doc["modulation"] = self.modulation.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TraceSpec":
        where = "trace spec: "
        name = json_field(doc, "name", str, where=where)
        count = json_field(doc, "count", int, where=where)
        vos = json_field(doc, "vos", list, [], of=dict, where=where)
        if not vos:
            raise ConfigurationError("trace spec needs a non-empty 'vos'")
        modulation = json_field(doc, "modulation", dict, None, where=where)
        return cls(
            name=name,
            count=count,
            seed=json_field(doc, "seed", int, 0, where=where),
            vos=tuple(VoSpec.from_dict(vo) for vo in vos),
            modulation=(
                None if modulation is None else DiurnalSpec.from_dict(modulation)
            ),
        )


@dataclass(frozen=True)
class StreamSpec:
    """A deterministic recipe for a synthetic job stream: the single-VO
    Poisson case that :func:`~repro.workloads.traces.generate.generate_stream`
    expands.

    ``mix`` entries are ``(workload, size, weight)``; ``size`` may be
    ``None`` for the workload's default dataset.  ``deadline_fraction``
    of jobs get a deadline ``arrival + slack * baseline`` where slack is
    uniform over ``deadline_slack`` and baseline is the workload's best
    predicted execution time on the target grid.
    """

    count: int
    seed: int = 0
    mean_interarrival: float = 0.1
    mix: Mix = _DEFAULT_MIX
    deadline_fraction: float = 0.0
    deadline_slack: Tuple[float, float] = (1.5, 3.0)
    priorities: Tuple[int, ...] = (0,)
    priority_weights: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_count_and_seed("stream", self.count, self.seed)
        if self.mean_interarrival <= 0:
            raise ConfigurationError("mean inter-arrival must be positive")
        _check_submissions("stream: ", self)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "StreamSpec":
        """Parse the ``stream`` section of a broker workload document.

        Example::

            {"count": 200, "seed": 7, "mean_interarrival": 0.05,
             "mix": [["kmeans", null, 2.0], ["em", null, 1.0]],
             "deadline_fraction": 0.4, "deadline_slack": [1.5, 3.0],
             "priorities": [0, 1]}
        """
        where = "stream: "
        return cls(
            count=json_field(doc, "count", int, where=where),
            seed=json_field(doc, "seed", int, 0, where=where),
            mean_interarrival=json_field(
                doc, "mean_interarrival", float, 0.1, where=where
            ),
            **_submissions(doc, where),
        )
