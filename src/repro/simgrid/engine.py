"""Virtual clock and event queue.

Events are ordered by (time, sequence number), so same-time events run in
the order they were scheduled and every drain is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.hotpath import hot
from repro.simgrid.errors import EngineError

__all__ = ["Event", "Simulator"]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback in virtual time.

    Events compare by ``(time, seq)`` which makes the execution order of
    same-time events deterministic (FIFO in scheduling order).  The class
    is slotted (REP301): one Event per scheduled callback means the
    per-instance dict would be pure overhead at trace scale.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of (time, seq, event): ties still resolve by sequence
        # number exactly as when Events were heaped directly, but the
        # heap sifts compare C-level tuples of floats/ints instead of
        # dispatching into the dataclass __lt__ per comparison.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled events included)."""
        return len(self._queue)

    @hot
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise EngineError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    @hot
    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise EngineError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        when = float(time)
        seq = next(self._seq)
        event = Event(when, seq, callback, tuple(args))
        heappush(self._queue, (when, seq, event))
        return event

    def step(self) -> bool:
        """Execute the next non-cancelled event. Returns False when idle.

        Not declared ``@hot``: the drain loop in :meth:`run` inlines
        this sequence, so per-event dispatch no longer routes through
        here.  It stays in the hot *region* (reachable from ``run``'s
        bounded branch), so the cost rules still police it.
        """
        queue = self._queue
        while queue:
            when, _seq, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = when
            event.callback(*event.args)
            self._processed += 1
            return True
        return False

    @hot
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so phase barriers can be expressed
        as ``sim.run(until=phase_end)``.
        """
        queue = self._queue
        if until is None:
            # Drain inline: one bound-method call per event (the
            # callback) instead of three.  Same pop/skip/execute
            # sequence as step(), and the counter still advances per
            # event so callbacks observing ``processed_events`` see
            # exactly what they saw under the step() loop.
            while queue:
                when, _seq, event = heappop(queue)
                if event.cancelled:
                    continue
                self._now = when
                event.callback(*event.args)
                self._processed += 1
            return
        if until < self._now:
            raise EngineError(f"cannot run backwards to t={until}")
        while queue:
            when, _seq, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if when > until:
                break
            self.step()
        self._now = float(until)

    def advance(self, delay: float) -> float:
        """Advance the clock by ``delay`` without executing queued events."""
        if delay < 0:
            raise EngineError(f"cannot advance by a negative delay ({delay})")
        self._now += delay
        return self._now
