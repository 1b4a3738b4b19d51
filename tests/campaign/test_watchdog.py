"""Tests for wall-clock deadline enforcement."""

import sys
import threading
import time

import pytest

from repro.campaign import (
    CampaignInterruptedError,
    DeadlineExceededError,
    run_with_deadline,
)
from repro.errors import CampaignError


class TestPassthrough:
    def test_value_without_supervision(self):
        assert run_with_deadline(lambda: 42, None) == 42

    def test_value_under_deadline(self):
        assert run_with_deadline(lambda: "ok", 5.0) == "ok"

    def test_exception_reraised_unchanged(self):
        boom = ValueError("boom")

        def fn():
            raise boom

        with pytest.raises(ValueError) as excinfo:
            run_with_deadline(fn, 5.0)
        assert excinfo.value is boom

    def test_exception_reraised_inline(self):
        with pytest.raises(ValueError):
            run_with_deadline(lambda: (_ for _ in ()).throw(ValueError()), None)


class TestDeadline:
    def test_slow_entry_times_out(self):
        with pytest.raises(DeadlineExceededError) as excinfo:
            run_with_deadline(
                lambda: time.sleep(5.0),
                0.05,
                label="fig99",
                poll_interval_s=0.01,
            )
        assert excinfo.value.label == "fig99"
        assert excinfo.value.deadline_s == 0.05
        assert "wall-clock deadline" in str(excinfo.value)

    def test_result_past_the_deadline_is_late_even_unobserved(self):
        """A worker that holds the interpreter until it is done (here: a
        busy loop under a 1 s switch interval) finishes before the
        supervisor polls; finishing after the deadline still times out."""

        def busy():
            end = time.monotonic() + 0.05
            while time.monotonic() < end:
                pass
            return "late"

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            with pytest.raises(DeadlineExceededError):
                run_with_deadline(busy, 0.001)
        finally:
            sys.setswitchinterval(previous)

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(CampaignError):
            run_with_deadline(lambda: 1, 0.0)
        with pytest.raises(CampaignError):
            run_with_deadline(lambda: 1, -1.0)


class TestStopEvent:
    def test_preset_stop_interrupts(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(CampaignInterruptedError):
            run_with_deadline(
                lambda: time.sleep(5.0), None, stop=stop, poll_interval_s=0.01
            )

    def test_stop_set_mid_run_interrupts(self):
        stop = threading.Event()

        def fn():
            stop.set()
            time.sleep(5.0)

        start = time.monotonic()
        with pytest.raises(CampaignInterruptedError):
            run_with_deadline(fn, None, stop=stop, poll_interval_s=0.01)
        assert time.monotonic() - start < 2.0

    def test_fast_entry_beats_stop(self):
        stop = threading.Event()
        assert run_with_deadline(lambda: 7, 5.0, stop=stop) == 7
