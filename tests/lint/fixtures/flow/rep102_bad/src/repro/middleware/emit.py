"""Serializes values perturbed by the unseeded draw (REP002 there)."""

from repro.core.durable import canonical_json
from repro.middleware.noise import _jitter


def render(values):
    return canonical_json([v + _jitter() for v in values])
