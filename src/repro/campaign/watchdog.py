"""Wall-clock deadline enforcement for campaign entries.

A hung or runaway experiment must not block the whole campaign.  For an
entry with a deadline, the watchdog runs the experiment callable on a
supervised daemon worker thread and polls it; when the deadline passes,
it raises :class:`DeadlineExceededError` in the *campaign* thread so the
runner can retry or classify the entry as timed-out and move on.  When
the operator interrupts the campaign (SIGINT/SIGTERM set the stop
event), the poll loop raises :class:`CampaignInterruptedError` instead,
so the runner can checkpoint and exit gracefully.  An entry with no
deadline has nothing to time out: the runner calls its driver inline and
starts no thread, and its signal handler raises
:class:`CampaignInterruptedError` into that attempt itself.

An abandoned worker cannot be killed from Python; it is left to finish
on its daemon thread and its result is discarded.  That is sound here
because a driver shares nothing writable with a later attempt: it is a
deterministic function of its inputs whose only effect is the returned
result, plus, on the serial runner, writes to the book of datasets and
kernel traces it was lent for the attempt.  The runner lends that book
to one attempt at a time and takes it back only when the attempt
finishes, so a book an abandoned thread still holds is never handed to a
later attempt, retry or entry: they get a fresh book while it is out.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.errors import CampaignError

__all__ = [
    "DeadlineExceededError",
    "CampaignInterruptedError",
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


def run_with_deadline(
    fn: Callable[[], Any],
    deadline_s: Optional[float],
    *,
    stop: Optional[threading.Event] = None,
    label: str = "entry",
    poll_interval_s: float = 0.02,
) -> Any:
    """Run ``fn()`` under a wall-clock deadline and a stop event.

    Returns ``fn()``'s value; re-raises its exception unchanged.  Raises
    :class:`DeadlineExceededError` when ``deadline_s`` elapses first and
    :class:`CampaignInterruptedError` when ``stop`` is set first.  With
    neither a deadline nor a stop event there is nothing to supervise
    and ``fn`` runs inline on the calling thread.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise CampaignError("deadline_s must be positive")
    if deadline_s is None and stop is None:
        return fn()

    box: dict = {}
    done = threading.Event()

    def _worker() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the campaign thread
            box["error"] = exc
        finally:
            box["finished"] = time.monotonic()
            done.set()

    worker = threading.Thread(
        target=_worker, name=f"campaign-{label}", daemon=True
    )
    start = time.monotonic()
    worker.start()
    while not done.is_set():
        if stop is not None and stop.is_set():
            raise CampaignInterruptedError
        wait = poll_interval_s
        if deadline_s is not None:
            remaining = deadline_s - (time.monotonic() - start)
            if remaining <= 0:
                raise DeadlineExceededError(label, deadline_s)
            wait = min(wait, remaining)
        done.wait(wait)
    if deadline_s is not None and box["finished"] - start > deadline_s:
        # Finished before this loop looked, but late all the same.
        raise DeadlineExceededError(label, deadline_s)
    if "error" in box:
        raise box["error"]
    return box["value"]
