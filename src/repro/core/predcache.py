"""Last-known-good prediction cache, fingerprint-keyed.

Vazhkudai & Schopf's history-based predictors legitimize serving a
*previously computed* prediction when a fresh one cannot be produced in
time: a prediction is a statistical statement about a mostly-stable
system, so a recent answer for the identical inputs is a principled
degraded response, not a lie — provided it is clearly marked stale and
its age is reported.  This cache is what the service's graceful
degradation serves from when the circuit breaker is open or a deadline
cannot be met.

Keys are content fingerprints (:mod:`repro.core.fingerprint`), so an
entry can never be served for different model inputs.  Eviction is
deterministic (least-recently *stored*, via insertion order).  The
cache lives in memory only: a restarted service refills it from live
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.simgrid.errors import ConfigurationError

__all__ = ["CachedPrediction", "PredictionCache"]


@dataclass(frozen=True)
class CachedPrediction:
    """One cached response body plus the simulated time it was stored."""

    payload: Dict[str, Any]
    stored_at_s: float
    hits: int = 0

    def age_s(self, now: float) -> float:
        """Seconds since the entry was stored (clamped at zero)."""
        return max(0.0, now - self.stored_at_s)


class PredictionCache:
    """Bounded, fingerprint-keyed store of last-known-good predictions.

    ``max_entries`` bounds memory; when full, the oldest *stored* entry
    is evicted (insertion order — deterministic, unlike LRU under
    replayed traffic where reads would perturb the order).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ConfigurationError("cache needs at least one entry slot")
        self.max_entries = max_entries
        self._entries: Dict[str, CachedPrediction] = {}
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        return fingerprint in self._entries

    def put(self, fingerprint: str, payload: Dict[str, Any], now: float) -> None:
        """Store (or refresh) the last-known-good payload for a key."""
        if not fingerprint:
            raise ConfigurationError("cache key must be a non-empty fingerprint")
        if fingerprint in self._entries:
            del self._entries[fingerprint]
        elif len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[fingerprint] = CachedPrediction(
            payload=dict(payload), stored_at_s=now
        )
        self.stores += 1

    def get(self, fingerprint: str) -> Optional[CachedPrediction]:
        """The cached entry, or ``None``; bumps the entry's hit count."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        bumped = CachedPrediction(
            payload=entry.payload,
            stored_at_s=entry.stored_at_s,
            hits=entry.hits + 1,
        )
        self._entries[fingerprint] = bumped
        return bumped
