"""Hypothesis property suite for the resilience primitives.

Two laws the pipeline's correctness rests on, fuzzed rather than
example-tested:

1. A token bucket never admits more than ``burst + rate * elapsed``
   requests over any observation window starting from full.
2. The circuit breaker state machine never records an illegal or lost
   transition, for any seeded interleaving of successes, failures, and
   probe attempts.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.faults.retry import RetryPolicy
from repro.service import (
    AdmissionError,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    TokenBucket,
)

_LEGAL_EDGES = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
}


class TestTokenBucketRateBound:
    @given(
        rate=st.floats(0.5, 1000.0, allow_nan=False),
        burst=st.floats(1.0, 64.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        attempts=st.integers(1, 300),
    )
    @settings(max_examples=100, deadline=None)
    def test_admissions_never_exceed_burst_plus_rate_times_elapsed(
        self, rate, burst, seed, attempts
    ):
        bucket = TokenBucket(rate=rate, burst=burst)
        rng = random.Random(seed)
        now = 0.0
        admitted = 0
        for _ in range(attempts):
            now += rng.uniform(0.0, 0.01)
            try:
                bucket.admit(now)
                admitted += 1
            except AdmissionError as exc:
                assert exc.retry_after_s > 0.0
            # The law, checked at every step: tokens spent can never
            # outrun the refill plus the initial burst.
            assert admitted <= burst + rate * now + 1.0e-6
        assert bucket.admitted == admitted
        assert bucket.admitted + bucket.shed == attempts


class TestBreakerTransitionsUnderFuzz:
    @given(
        seed=st.integers(0, 2**32 - 1),
        threshold=st.integers(1, 5),
        events=st.integers(1, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_transition_is_lost_or_illegal(self, seed, threshold, events):
        cooldown = RetryPolicy(
            max_attempts=4,
            base_backoff_s=0.1,
            backoff_factor=2.0,
            max_backoff_s=1.0,
        )
        breaker = CircuitBreaker(threshold, cooldown)
        rng = random.Random(seed)
        now = 0.0
        for _ in range(events):
            now += rng.uniform(0.0, 0.3)
            choice = rng.random()
            try:
                breaker.allow(now)
                admitted = True
            except CircuitOpenError:
                admitted = False
            if admitted:
                if choice < 0.5:
                    breaker.record_failure(now)
                else:
                    breaker.record_success(now)

        # Audit the recorded history: it must replay from CLOSED to the
        # live state through legal, time-ordered edges only.
        state = BreakerState.CLOSED
        last_at = float("-inf")
        for transition in breaker.transitions:
            assert transition.source is state, "lost transition"
            assert (transition.source, transition.target) in _LEGAL_EDGES
            assert transition.at_s >= last_at
            state = transition.target
            last_at = transition.at_s
        assert breaker.state is state
        assert breaker.opens == sum(
            1
            for t in breaker.transitions
            if t.target is BreakerState.OPEN
        )
