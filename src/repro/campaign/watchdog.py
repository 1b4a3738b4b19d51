"""Wall-clock deadline enforcement for campaign entries.

A hung or runaway experiment must not block the whole campaign.  Every
attempt runs on the campaign thread; for one with a deadline the
watchdog arms ``ITIMER_REAL``, and when it expires the ``SIGALRM``
handler raises :class:`DeadlineExceededError` into the attempt so the
runner can retry or classify the entry as timed-out and move on.  The
runner's SIGINT/SIGTERM handler raises :class:`CampaignInterruptedError`
into an attempt the same way, so the runner can checkpoint and exit
gracefully.

Python runs a signal handler between bytecodes on the main thread, so:

- deadlines need the main thread (a deadline run elsewhere is refused);
- the watchdog owns ``ITIMER_REAL`` and ``SIGALRM`` only while a
  deadline attempt runs, and refuses to start one while another owner
  has the timer armed rather than silently disarm it;
- an attempt can overrun its deadline by at most the longest single C
  call it makes (a NumPy kernel, a ``sleep`` is interrupted at once).

Nothing is left running after an attempt is abandoned: it has unwound.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Callable, Optional

from repro.errors import CampaignError

__all__ = [
    "DeadlineExceededError",
    "CampaignInterruptedError",
    "require_alarm",
    "run_with_deadline",
]


class DeadlineExceededError(CampaignError):
    """An entry exceeded its wall-clock deadline and was abandoned."""

    def __init__(self, label: str, deadline_s: float) -> None:
        super().__init__(
            f"'{label}' exceeded its {deadline_s:g}s wall-clock deadline"
        )
        self.label = label
        self.deadline_s = deadline_s


class CampaignInterruptedError(CampaignError):
    """The operator asked the campaign to stop (SIGINT/SIGTERM)."""

    def __init__(self, reason: str = "interrupted") -> None:
        super().__init__(f"campaign {reason}; journal checkpoint is durable")
        self.reason = reason


def require_alarm() -> None:
    """Raise :class:`CampaignError` unless a deadline can be enforced
    here: on the main thread, with ``ITIMER_REAL`` not armed."""
    if threading.current_thread() is not threading.main_thread():
        raise CampaignError(
            "deadlines need the main thread (SIGALRM is delivered there); "
            "run a campaign with deadlines on the main thread"
        )
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        raise CampaignError(
            "deadlines need ITIMER_REAL, which another owner has armed"
        )


def run_with_deadline(
    fn: Callable[[], Any],
    deadline_s: Optional[float],
    *,
    label: str = "entry",
) -> Any:
    """Run ``fn()`` on this thread under a wall-clock deadline.

    Returns ``fn()``'s value; re-raises its exception unchanged.  Raises
    :class:`DeadlineExceededError` into ``fn`` when ``deadline_s``
    elapses first.  With no deadline it just calls ``fn()``.
    """
    if deadline_s is None:
        return fn()
    if deadline_s <= 0:
        raise CampaignError("deadline_s must be positive")
    require_alarm()

    def _alarm(_signum, _frame):
        raise DeadlineExceededError(label, deadline_s)

    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            return fn()
        finally:
            # An alarm that fires here has still been handled by the
            # time the outer block restores the previous handler.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
