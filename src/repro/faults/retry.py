"""Retry policy for transient repository read errors.

Failed chunk reads are retried with capped exponential backoff; the time
spent on failed attempts and backoff delays is *charged into the pass's
``t_disk``* — retrying is part of data retrieval, exactly where a real
deployment would lose the time.  A chunk whose read keeps failing past
``max_attempts`` exhausts recovery
(:class:`~repro.errors.RecoveryExhaustedError`), which the runtime treats
as fatal for the run.

The same :class:`RetryPolicy` budgets the broker's re-placement of a
preempted job (:data:`DEFAULT_BROKER_RETRY_POLICY`) and the campaign
watchdog's retry after a timeout (:data:`WATCHDOG_RETRY_POLICY`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FaultError
from repro.simgrid.trace import left_sum

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_BROKER_RETRY_POLICY",
    "WATCHDOG_RETRY_POLICY",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential-backoff retry for per-chunk read errors.

    Attributes
    ----------
    max_attempts:
        Total attempts per chunk, first try included (``>= 1``).
    base_backoff_s:
        Delay before the first retry.
    backoff_factor:
        Multiplier applied to the delay after each failed retry.
    max_backoff_s:
        Cap on any single backoff delay.
    per_chunk_timeout_s:
        When set, a failed read attempt is abandoned after this long —
        bounding the cost of an attempt that would otherwise hang.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    per_chunk_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError("max_attempts must be >= 1")
        if self.base_backoff_s < 0:
            raise FaultError("base_backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultError("backoff_factor must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise FaultError("max_backoff_s must be >= base_backoff_s")
        if self.per_chunk_timeout_s is not None and self.per_chunk_timeout_s <= 0:
            raise FaultError("per_chunk_timeout_s must be positive")

    def backoff_s(self, retry_index: int) -> float:
        """Delay before retry number ``retry_index`` (1-based).

        >>> RetryPolicy(base_backoff_s=0.1, backoff_factor=2.0).backoff_s(3)
        0.4
        """
        if retry_index < 1:
            raise FaultError("retry_index is 1-based")
        raw = self.base_backoff_s * self.backoff_factor ** (retry_index - 1)
        return min(raw, self.max_backoff_s)

    def total_backoff_s(self, failures: int) -> float:
        """Summed backoff delay across ``failures`` consecutive failures."""
        if failures < 0:
            raise FaultError("failure count must be >= 0")
        return left_sum(self.backoff_s(i) for i in range(1, failures + 1))

    def attempt_cost_s(self, read_time_s: float) -> float:
        """Time lost to one failed read attempt (timeout-capped)."""
        if read_time_s < 0:
            raise FaultError("read time must be >= 0")
        if self.per_chunk_timeout_s is None:
            return read_time_s
        return min(read_time_s, self.per_chunk_timeout_s)

    def retry_cost_s(self, failures: int, read_time_s: float) -> float:
        """Total extra retrieval time for a chunk that fails ``failures``
        times before succeeding: failed attempts plus backoff delays.

        The successful attempt itself is *not* included — the caller
        already charges one clean read per chunk.
        """
        if failures < 0:
            raise FaultError("failure count must be >= 0")
        if failures >= self.max_attempts:
            raise FaultError(
                f"{failures} failures exceed the {self.max_attempts}-attempt "
                "budget; the caller should have escalated"
            )
        return failures * self.attempt_cost_s(read_time_s) + self.total_backoff_s(
            failures
        )

    @property
    def max_failures(self) -> int:
        """Most failures a chunk can survive (one attempt must succeed)."""
        return self.max_attempts - 1


#: Policy used when a scenario does not specify one.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: The broker's re-placement budget for a preempted or failed job: a
#: torn-down attempt re-enters the wait queue after the backoff of its
#: failure count, charged in simulated time (the detection +
#: resubmission latency of a real broker); once ``max_attempts``
#: placement attempts are spent the job is terminally failed.
DEFAULT_BROKER_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    base_backoff_s=0.02,
    backoff_factor=2.0,
    max_backoff_s=0.5,
)

#: Policy the campaign watchdog uses for retry-after-timeout when none is
#: configured: one immediate retry, then give up and classify the entry
#: as timed-out.  A deadline overrun usually means the experiment is
#: stuck, not slow, so long backoffs would only delay the campaign.
WATCHDOG_RETRY_POLICY = RetryPolicy(
    max_attempts=2,
    base_backoff_s=0.0,
    backoff_factor=1.0,
    max_backoff_s=0.0,
)
