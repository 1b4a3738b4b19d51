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
entry can never be served for different model inputs, and a file of
another key encoding is refused by its ``format_version``.  Eviction is
deterministic (least-recently *stored*, via insertion order), and the
cache round-trips through canonical JSON so a service can persist its
warm state across restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.durable import (
    atomic_write_json,
    check_format_version,
    json_number,
    read_json_document,
)
from repro.simgrid.errors import ConfigurationError

__all__ = ["CachedPrediction", "PredictionCache"]

#: 2 since keys became compact-JSON digests: no format-1 key can match.
_FORMAT_VERSION = 2
_KIND = "prediction cache"
_REMEDY = "delete the file; the cache rebuilds from live traffic"


@dataclass(frozen=True)
class CachedPrediction:
    """One cached response body plus the simulated time it was stored."""

    payload: Dict[str, Any]
    stored_at_s: float
    hits: int = 0

    def age_s(self, now: float) -> float:
        """Seconds since the entry was stored (clamped at zero)."""
        return max(0.0, now - self.stored_at_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "payload": self.payload,
            "stored_at_s": self.stored_at_s,
            "hits": self.hits,
        }


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

    # ------------------------------------------------------------------
    # Persistence (warm restarts)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "max_entries": self.max_entries,
            # Insertion order is part of the eviction semantics; keep it
            # explicitly rather than relying on JSON object order.
            "order": list(self._entries),
            "entries": {
                key: entry.to_dict() for key, entry in self._entries.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PredictionCache":
        check_format_version(data, _KIND, _FORMAT_VERSION, remedy=_REMEDY)
        entries, order = data.get("entries"), data.get("order")
        if not (
            isinstance(entries, dict) and isinstance(order, list)
            and all(isinstance(key, str) for key in order)
            and len(order) == len(entries) == len(set(order) & entries.keys())
        ):
            raise ConfigurationError(
                f"{_KIND}: 'order' must list every key of 'entries' once"
            )
        cache = cls(json_number(  # never fewer slots than entries
            "max_entries", data.get("max_entries"), True, minimum=max(1, len(order))
        ))
        for key in order:
            raw, at = entries[key], f"{_KIND} entry {key!r}: "
            if not isinstance(raw, dict) or not isinstance(raw.get("payload"), dict):
                raise ConfigurationError(f"{at}'payload' must be an object")
            cache._entries[key] = CachedPrediction(
                raw["payload"],
                json_number("stored_at_s", raw.get("stored_at_s"), where=at),
                json_number("hits", raw.get("hits", 0), True, where=at, minimum=0),
            )
        return cache

    def save(self, path: Any) -> Any:
        """Durably persist the cache as canonical JSON."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Any) -> "PredictionCache":
        """Load a previously saved cache (corrupt files raise
        :class:`~repro.core.durable.CorruptStoreError`)."""
        return cls.from_dict(read_json_document(path, _KIND, remedy=_REMEDY))
