"""The service's time source.

Every resilience decision — token-bucket refill, breaker cool-down,
deadline budgets, cache age — reads time from a :class:`ServiceClock`
owned by the service, never from the host directly:

- :class:`VirtualClock` is the deterministic instance the chaos harness
  and every test drive; it only moves when the driver advances it, so a
  ``(seed, scenario)`` replay of a recorded request log is byte-identical.
- :class:`MonotonicClock` is the real-serving instance behind the HTTP
  adapter.  It is the *only* sanctioned wall-clock reader in the service
  layer (this module is on the REP001 allowlist); simulated results
  never depend on it.

What an attempt at backend work, or a retry backoff, *cost* is the
clock's to say as well (:meth:`ServiceClock.charge`).  Under
:class:`VirtualClock` execution latency is *modeled*: the service charges
each attempt the deterministic price of its backend work (stretched by
injected fault delays) and each backoff its policy delay, which is what
the latency invariant ("settled latency stays under the declared
deadline + ε") is checked against in every seeded scenario.  Under
:class:`MonotonicClock` the charge is *measured*: the time the attempt
really took, and ≈ 0 for a backoff, because nothing in the service ever
sleeps.
"""

from __future__ import annotations

import abc
import time

from repro.simgrid.errors import ConfigurationError

__all__ = ["ServiceClock", "VirtualClock", "MonotonicClock"]


class ServiceClock(abc.ABC):
    """Monotonic seconds; the zero point is arbitrary but fixed."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds."""

    @abc.abstractmethod
    def charge(self, priced_s: float, began_s: float) -> float:
        """Seconds to book for one attempt or backoff begun at ``began_s``.

        ``priced_s`` is its price in simulated time (a
        :class:`~repro.service.backends.ServiceCostModel` cost, or the
        retry policy's backoff).
        """


class VirtualClock(ServiceClock):
    """Deterministic clock advanced explicitly by the driver."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = float(start_s)

    def now(self) -> float:
        return self._now

    def charge(self, priced_s: float, began_s: float) -> float:
        return priced_s

    def advance(self, seconds: float) -> float:
        """Move time forward; rejects negative steps."""
        if seconds < 0:
            raise ConfigurationError("virtual clock cannot move backwards")
        self._now += seconds
        return self._now

    def advance_to(self, when_s: float) -> float:
        """Jump to an absolute time at or after the current one."""
        if when_s < self._now:
            raise ConfigurationError(
                f"virtual clock cannot rewind from {self._now} to {when_s}"
            )
        self._now = when_s
        return self._now


class MonotonicClock(ServiceClock):
    """Real serving: the host's monotonic clock, rebased to start at 0."""

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def charge(self, priced_s: float, began_s: float) -> float:
        return self.now() - began_s
