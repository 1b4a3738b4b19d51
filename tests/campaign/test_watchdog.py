"""Tests for wall-clock deadline enforcement."""

import signal
import sys
import time

import pytest

from repro.campaign import DeadlineExceededError, run_with_deadline
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
            run_with_deadline(lambda: time.sleep(5.0), 0.05, label="fig99")
        assert excinfo.value.label == "fig99"
        assert excinfo.value.deadline_s == 0.05
        assert "wall-clock deadline" in str(excinfo.value)

    def test_result_past_the_deadline_is_late_even_unobserved(self):
        """A busy loop that never sleeps or yields the interpreter (here
        under a 1 s switch interval) is still interrupted: the alarm's
        handler runs between its bytecodes."""

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


class TestTheAlarm:
    """The watchdog owns ``SIGALRM`` and ``ITIMER_REAL`` only while a
    deadline attempt runs (the refusals are in ``test_runner.py``)."""

    @pytest.mark.parametrize("slow", [False, True])
    def test_timer_and_handler_are_restored(self, slow):
        previous = signal.getsignal(signal.SIGALRM)
        if slow:
            with pytest.raises(DeadlineExceededError):
                run_with_deadline(lambda: time.sleep(5.0), 0.02)
        else:
            assert run_with_deadline(lambda: 1, 5.0) == 1
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
