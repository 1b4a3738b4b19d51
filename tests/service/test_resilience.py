"""Unit tests for the resilience primitives (deterministic paths)."""

from __future__ import annotations

import pytest

from repro.faults.retry import RetryPolicy
from repro.service import (
    AdmissionError,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineBudget,
    MonotonicClock,
    ResilienceConfig,
    TokenBucket,
    VirtualClock,
)
from repro.simgrid.errors import ConfigurationError


class TestDeadlineBudget:
    def test_begin_and_remaining(self):
        budget = DeadlineBudget.begin(10.0, 0.5)
        assert budget.deadline_s == 10.5
        assert budget.allows(10.2, 0.25)
        assert not budget.allows(10.2, 0.5)

    def test_allows_exact_fit(self):
        budget = DeadlineBudget.begin(0.0, 1.0)
        assert budget.allows(0.0, 1.0)
        assert not budget.allows(0.0, 1.0001)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            DeadlineBudget.begin(0.0, 0.0)


class TestTokenBucket:
    def test_burst_then_shed(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.admit(0.0)
        bucket.admit(0.0)
        with pytest.raises(AdmissionError) as excinfo:
            bucket.admit(0.0)
        assert excinfo.value.retry_after_s == pytest.approx(0.1)
        assert bucket.admitted == 2
        assert bucket.shed == 1

    def test_refill_is_lazy_and_capped(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.admit(0.0)
        bucket.admit(0.0)
        # After a long idle stretch, refill caps at burst.
        bucket.admit(100.0)
        bucket.admit(100.0)
        with pytest.raises(AdmissionError):
            bucket.admit(100.0)

    def test_retry_after_is_honest(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        bucket.admit(0.0)
        with pytest.raises(AdmissionError) as excinfo:
            bucket.admit(0.0)
        # Waiting exactly the advertised hint earns admission.
        bucket.admit(0.0 + excinfo.value.retry_after_s)


class TestCircuitBreaker:
    def policy(self):
        return RetryPolicy(
            max_attempts=4, base_backoff_s=1.0, backoff_factor=2.0,
            max_backoff_s=8.0,
        )

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(2, self.policy())
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.1)
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow(0.5)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(2, self.policy())
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(1, self.policy())
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        breaker.allow(breaker.open_until_s)
        assert breaker.state is BreakerState.HALF_OPEN
        # Only one probe while the outcome is pending.
        with pytest.raises(CircuitOpenError):
            breaker.allow(breaker.open_until_s)
        breaker.record_success(breaker.open_until_s + 0.01)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_opens == 0

    def test_failed_probe_reopens_with_longer_cooldown(self):
        breaker = CircuitBreaker(1, self.policy())
        breaker.record_failure(0.0)
        first_cooldown = breaker.open_until_s - 0.0
        probe_at = breaker.open_until_s
        breaker.allow(probe_at)
        breaker.record_failure(probe_at)
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_until_s - probe_at > first_cooldown
        assert breaker.opens == 2

    def test_transitions_are_recorded_in_order(self):
        breaker = CircuitBreaker(1, self.policy())
        breaker.record_failure(0.0)
        breaker.allow(breaker.open_until_s)
        breaker.record_success(breaker.open_until_s)
        edges = [(t.source, t.target) for t in breaker.transitions]
        assert edges == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]


class TestClocks:
    def test_virtual_clock_rejects_rewind(self):
        clock = VirtualClock()
        clock.advance(1.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-0.5)
        with pytest.raises(ConfigurationError):
            clock.advance_to(0.5)

    def test_monotonic_clock_is_rebased_and_monotone(self):
        clock = MonotonicClock()
        first = clock.now()
        assert first >= 0.0
        assert clock.now() >= first


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(admission_rate=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(admission_burst=0.5)
