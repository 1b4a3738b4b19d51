"""Seedable distribution specs for the trace workload generators.

Published grid-workload characterizations (the Grid Workloads Archive
papers, Guazzone-style trace fits) describe arrival processes and load
mixes with a small family of parametric distributions: exponential
(Poisson arrivals), Weibull (bursty interarrivals, shape < 1), lognormal
and gamma (daytime load), and Pareto (heavy tails).  A
:class:`DistributionSpec` names one member of that family with concrete
parameters and samples it from a caller-supplied seeded NumPy generator,
so every draw is attributable to the (seed, spec) pair and replays
byte-identically.

The classic ``StreamSpec`` Poisson stream is *one point in this space*:
``DistributionSpec.exponential(mean)`` issues the exact
``rng.exponential(mean, count)`` call the pre-trace generator made, so
:func:`repro.workloads.traces.generate.generate_stream` reproduces every
historical stream bit-for-bit.

Draw discipline: :meth:`DistributionSpec.sample` makes exactly one NumPy
vectorized call per invocation.  Changing the underlying NumPy method of
a kind would silently re-randomize every seeded trace, so — like the
stream draw order — the mapping below is part of the format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.core.durable import json_field
from repro.simgrid.errors import ConfigurationError

__all__ = ["DistributionSpec", "DISTRIBUTION_KINDS"]


#: kind -> (ordered parameter names).  Order fixes ``params`` layout and
#: the positional meaning in :meth:`DistributionSpec.from_dict`.
DISTRIBUTION_KINDS: Mapping[str, Tuple[str, ...]] = {
    "exponential": ("mean",),
    "weibull": ("shape", "scale"),
    "lognormal": ("mu", "sigma"),
    "gamma": ("shape", "scale"),
    "pareto": ("shape", "scale"),
    "uniform": ("low", "high"),
    "constant": ("value",),
}


@dataclass(frozen=True)
class DistributionSpec:
    """One parametric distribution, samplable from a seeded generator.

    ``params`` is an ordered tuple of ``(name, value)`` pairs matching
    :data:`DISTRIBUTION_KINDS` — tuples (not dicts) keep the spec
    hashable and its canonical JSON stable.  Build instances through the
    named constructors (:meth:`exponential`, :meth:`weibull`, ...) or
    :meth:`from_dict`.
    """

    kind: str
    params: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        names = DISTRIBUTION_KINDS.get(self.kind)
        if names is None:
            raise ConfigurationError(
                f"unknown distribution kind '{self.kind}'; known: "
                + ", ".join(sorted(DISTRIBUTION_KINDS))
            )
        got = tuple(name for name, _ in self.params)
        if got != names:
            raise ConfigurationError(
                f"{self.kind} distribution needs params {names}, got {got}"
            )
        p = dict(self.params)
        if self.kind == "uniform":
            if not 0.0 <= p["low"] <= p["high"]:
                raise ConfigurationError(
                    "uniform distribution needs 0 <= low <= high"
                )
        elif self.kind == "constant":
            if p["value"] < 0.0:
                raise ConfigurationError(
                    "constant distribution needs value >= 0"
                )
        elif self.kind == "lognormal":
            if p["sigma"] <= 0.0:
                raise ConfigurationError("lognormal needs sigma > 0")
        else:
            for name, value in self.params:
                if value <= 0.0:
                    raise ConfigurationError(
                        f"{self.kind} distribution needs {name} > 0, "
                        f"got {value!r}"
                    )

    # -- named constructors -------------------------------------------

    @classmethod
    def exponential(cls, mean: float) -> "DistributionSpec":
        """Poisson arrivals: exponential gaps with the given mean."""
        return cls("exponential", (("mean", float(mean)),))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "DistributionSpec":
        """Weibull gaps; ``shape < 1`` gives the bursty GWA-style fits."""
        return cls(
            "weibull", (("shape", float(shape)), ("scale", float(scale)))
        )

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "DistributionSpec":
        """Lognormal with log-space mean ``mu`` and deviation ``sigma``."""
        return cls("lognormal", (("mu", float(mu)), ("sigma", float(sigma))))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "DistributionSpec":
        return cls(
            "gamma", (("shape", float(shape)), ("scale", float(scale)))
        )

    @classmethod
    def pareto(cls, shape: float, scale: float) -> "DistributionSpec":
        """Pareto type I with minimum ``scale`` and tail index ``shape``."""
        return cls(
            "pareto", (("shape", float(shape)), ("scale", float(scale)))
        )

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistributionSpec":
        return cls("uniform", (("low", float(low)), ("high", float(high))))

    @classmethod
    def constant(cls, value: float) -> "DistributionSpec":
        """A degenerate distribution: every draw is ``value``.

        Still consumes no randomness — handy for strictly periodic
        arrival processes and for pinning a quantity in tests.
        """
        return cls("constant", (("value", float(value)),))

    # -- sampling ------------------------------------------------------

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws as a float array, one NumPy call.

        The per-kind NumPy mapping is frozen (see module docstring);
        notably ``exponential`` issues ``rng.exponential(mean, count)``
        exactly as the historical Poisson stream generator did.
        """
        if count < 0:
            raise ConfigurationError("sample count must be >= 0")
        p = dict(self.params)
        if self.kind == "exponential":
            return rng.exponential(p["mean"], count)
        if self.kind == "weibull":
            return p["scale"] * rng.weibull(p["shape"], count)
        if self.kind == "lognormal":
            return rng.lognormal(p["mu"], p["sigma"], count)
        if self.kind == "gamma":
            return rng.gamma(p["shape"], p["scale"], count)
        if self.kind == "pareto":
            # NumPy's pareto() is the Lomax (shifted) variant; adding 1
            # and scaling recovers Pareto type I with minimum `scale`.
            return p["scale"] * (1.0 + rng.pareto(p["shape"], count))
        if self.kind == "uniform":
            return rng.uniform(p["low"], p["high"], count)
        # "constant" — __post_init__ guarantees the kind set is closed.
        return np.full(count, p["value"], dtype=float)

    def mean(self) -> float:
        """Analytic mean (``inf`` for Pareto with shape <= 1).

        Used by presets and reports to state the offered load implied by
        an interarrival spec without sampling it.
        """
        p = dict(self.params)
        if self.kind == "exponential":
            return p["mean"]
        if self.kind == "weibull":
            return p["scale"] * math.gamma(1.0 + 1.0 / p["shape"])
        if self.kind == "lognormal":
            return math.exp(p["mu"] + 0.5 * p["sigma"] ** 2)
        if self.kind == "gamma":
            return p["shape"] * p["scale"]
        if self.kind == "pareto":
            if p["shape"] <= 1.0:
                return math.inf
            return p["shape"] * p["scale"] / (p["shape"] - 1.0)
        if self.kind == "uniform":
            return 0.5 * (p["low"] + p["high"])
        return p["value"]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "DistributionSpec":
        """Parse ``{"kind": ..., "params": {...}}``."""
        kind = json_field(doc, "kind", str, where="distribution: ")
        names = DISTRIBUTION_KINDS.get(kind)
        if names is None:
            raise ConfigurationError(
                f"unknown distribution kind '{kind}'; known: "
                + ", ".join(sorted(DISTRIBUTION_KINDS))
            )
        where = f"{kind} distribution: "
        params = json_field(doc, "params", dict, known=names, where=where)
        return cls(
            kind,
            tuple((n, json_field(params, n, float, where=where)) for n in names),
        )
