"""Resilience primitives: admission → deadline → breaker.

The service wraps every request in this pipeline (DESIGN.md §15):

1. :class:`TokenBucket` — admission control.  Over any window the
   service accepts at most ``burst + rate·window`` requests; the rest
   are *shed* with a deterministic ``Retry-After`` hint (HTTP 429).
   Shedding early is the cheapest possible failure: no backend call,
   no queue growth.  Admission is the only stage that sheds overload.
2. :class:`DeadlineBudget` — the request's absolute deadline, which
   every later stage of the same request checks its work against.
3. :class:`CircuitBreaker` — per-(app, cluster) failure isolation
   around predictor evaluation.  Repeated backend failures open the
   circuit; while open, requests go straight to degraded mode (cached
   prediction marked stale, else HTTP 503) without a doomed backend
   call.  After a cool-down (reusing
   :class:`~repro.faults.retry.RetryPolicy` backoff, escalating with
   consecutive opens) one half-open probe is admitted; success closes
   the circuit, failure re-opens it.

Everything is deterministic given request arrival times: no threads, no
sleeps, no host clock — so the chaos harness can replay a scenario and
demand a byte-identical request log.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.faults.retry import RetryPolicy
from repro.service.errors import AdmissionError, CircuitOpenError
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "DeadlineBudget",
    "TokenBucket",
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "BreakerBank",
    "ResilienceConfig",
]


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DeadlineBudget:
    """A request's absolute deadline: immutable, set once on arrival."""

    start_s: float
    deadline_s: float

    def __post_init__(self) -> None:
        if self.deadline_s < self.start_s:
            raise ConfigurationError(
                "deadline budget cannot end before it starts"
            )

    @classmethod
    def begin(cls, now: float, budget_s: float) -> "DeadlineBudget":
        """A fresh budget of ``budget_s`` seconds starting at ``now``."""
        if not 0 < budget_s < math.inf:  # NaN fails both comparisons
            raise ConfigurationError(
                f"deadline budget must be positive and finite, got {budget_s}"
            )
        return cls(start_s=now, deadline_s=now + budget_s)

    def allows(self, now: float, cost_s: float) -> bool:
        """Whether ``cost_s`` more seconds of work still fit."""
        return now + cost_s <= self.deadline_s


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Starts full.  :meth:`admit` refills lazily from the elapsed time,
    then either takes one token or raises :class:`AdmissionError` with
    the exact time until the next token — the 429 ``Retry-After``.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError("admission rate must be positive")
        if burst < 1:
            raise ConfigurationError("admission burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._updated_at = 0.0
        self.admitted = 0
        self.shed = 0

    def _refill(self, now: float) -> None:
        if now > self._updated_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated_at) * self.rate
            )
            self._updated_at = now

    def admit(self, now: float) -> None:
        """Take one token or shed with a deterministic retry hint."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return
        self.shed += 1
        retry_after = (1.0 - self._tokens) / self.rate
        raise AdmissionError(
            f"admission rate exceeded at t={now:.6f}; retry in "
            f"{retry_after:.6f}s",
            retry_after_s=retry_after,
        )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: The legal edges of the breaker state machine.
_ALLOWED_TRANSITIONS = frozenset(
    {
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        (BreakerState.HALF_OPEN, BreakerState.OPEN),
    }
)


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change (the fuzz suite audits these)."""

    at_s: float
    source: BreakerState
    target: BreakerState


class CircuitBreaker:
    """closed → open → half-open → closed, deterministically.

    ``failure_threshold`` consecutive backend failures open the
    circuit; it stays open for a cool-down drawn from ``cooldown``
    (:class:`RetryPolicy` backoff, escalating with consecutive opens,
    capped at the policy's ``max_backoff_s``).  The first
    :meth:`allow` at or after the cool-down flips to half-open and
    admits exactly one probe; the probe's outcome closes or re-opens
    the circuit.  Every transition is appended to :attr:`transitions`.
    """

    def __init__(
        self, failure_threshold: int, cooldown: RetryPolicy
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.consecutive_opens = 0
        self.open_until_s = 0.0
        self.opens = 0
        self.transitions: List[BreakerTransition] = []

    def _move(self, now: float, target: BreakerState) -> None:
        edge = (self.state, target)
        if edge not in _ALLOWED_TRANSITIONS:
            raise ConfigurationError(
                f"illegal breaker transition {edge[0].value} -> "
                f"{target.value}"
            )
        self.transitions.append(
            BreakerTransition(at_s=now, source=self.state, target=target)
        )
        self.state = target

    def _open(self, now: float) -> None:
        self.consecutive_opens += 1
        self.opens += 1
        retry_index = min(
            self.consecutive_opens, self.cooldown.max_attempts - 1
        )
        delay = self.cooldown.backoff_s(max(1, retry_index))
        self.open_until_s = now + delay
        self._move(now, BreakerState.OPEN)

    def allow(self, now: float) -> None:
        """Admit the call, or raise :class:`CircuitOpenError`.

        Open circuits flip to half-open once the cool-down elapses; the
        admitting call is the probe.
        """
        if self.state is BreakerState.CLOSED:
            return
        if self.state is BreakerState.OPEN:
            if now < self.open_until_s:
                raise CircuitOpenError(
                    f"circuit open until t={self.open_until_s:.6f} "
                    f"(now t={now:.6f})"
                )
            self._move(now, BreakerState.HALF_OPEN)
            return
        # HALF_OPEN: exactly one probe is in flight; further calls are
        # refused until its outcome is recorded.
        raise CircuitOpenError(
            f"circuit half-open at t={now:.6f}: probe outcome pending"
        )

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.consecutive_opens = 0
            self._move(now, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self.consecutive_failures = 0
                self._open(now)


class BreakerBank:
    """Lazily created :class:`CircuitBreaker` per (app, cluster) key.

    One unhealthy (app, cluster) pair must not poison predictions for
    every other pair — isolation is per key, like the calibrator's
    correction factors.
    """

    def __init__(
        self, failure_threshold: int, cooldown: RetryPolicy
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, app: str, cluster: str) -> CircuitBreaker:
        key = (app, cluster)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.failure_threshold, self.cooldown)
            self._breakers[key] = breaker
        return breaker

    def total_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    def snapshot(self) -> Dict[str, str]:
        """Current state per key, for reports (sorted, deterministic)."""
        return {
            f"{app} @ {cluster}": self._breakers[(app, cluster)].state.value
            for app, cluster in sorted(self._breakers)
        }


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


#: Budget for a request that does not declare its own ``deadline_s``.
DEFAULT_DEADLINE_S = 0.25

#: The latency invariant's slack over the declared deadline, and the
#: price booked for a degraded (cache-served or refused) reply.  The
#: invariant holds for an abandoned request only while
#: ``DEGRADED_COST_S <= DEADLINE_EPSILON_S``.
DEADLINE_EPSILON_S = 1.0e-3
DEGRADED_COST_S = 2.0e-4

#: Backend retries *within* the request's deadline; each backoff is
#: booked through the service clock like an attempt.
RETRY = RetryPolicy(
    max_attempts=3, base_backoff_s=0.005, backoff_factor=2.0, max_backoff_s=0.05
)

#: Circuit breaker tuning (see :class:`CircuitBreaker`).
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN = RetryPolicy(
    max_attempts=5, base_backoff_s=0.25, backoff_factor=2.0, max_backoff_s=4.0
)


@dataclass(frozen=True)
class ResilienceConfig:
    """The pipeline's caller-set knob: token-bucket admission.

    ``admission_rate`` is the refill in requests/s, ``admission_burst``
    the bucket's capacity.  Everything else is a module constant.
    """

    admission_rate: float = 500.0
    admission_burst: float = 64.0

    def __post_init__(self) -> None:
        if self.admission_rate <= 0:
            raise ConfigurationError("admission_rate must be positive")
        if self.admission_burst < 1:
            raise ConfigurationError("admission_burst must be >= 1")
