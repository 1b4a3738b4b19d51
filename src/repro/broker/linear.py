"""Retained linear-path reference event queue of the broker core.

The scale-up PR replaced the broker's event queue with an indexed heap
(see :mod:`repro.broker.events`).  This module keeps the pre-scale-up
queue alive:

- :class:`LinearEventQueue` — a sorted-list event queue: every push is a
  ``bisect.insort`` on the composite index ``(time, kind, insertion
  seq)`` and every pop is a ``pop(0)``.  Its drain order is *by
  construction* the total order the indexed heap must reproduce, which
  is what the equivalence property suite asserts.

It is wired up by ``engine="linear"`` on
:meth:`~repro.broker.engine.GridBroker.run`, which also keeps the wait
queue a sorted list, routes calibration through the uncached
:meth:`~repro.broker.calibration.OnlineCalibrator.reference_correct`
and rebuilds placement options from scratch on every decision.  That
configuration is the baseline ``benchmarks/bench_throughput.py``
measures the indexed engine against, and the oracle the equivalence
suite replays — same seeded workload, identical ``BrokerReport``
bytes, with and without grid faults.

Both engines share the one :class:`~repro.broker.events.SitePool`: a
site's free nodes are tens of indices however long the stream is, so
the sorted free list the pre-scale-up pool used is also what the
indexed engine runs on (its model oracle lives with the stateful pool
test, ``tests/broker/pool_model.py``).
"""

from __future__ import annotations

import bisect
import itertools
from typing import List, Tuple

from repro.broker.events import Event
from repro.simgrid.errors import ConfigurationError

__all__ = ["LinearEventQueue"]


class LinearEventQueue:
    """Sorted-list event queue; the indexed heap's order oracle.

    API-compatible with :class:`~repro.broker.events.EventQueue`
    (push/pop/peek/len/bool and the ``peak_depth``/``total_pushed``
    stats), but every push pays an ``O(n)`` insertion-sort step and
    every pop an ``O(n)`` front removal — the costs the indexed heap
    removes.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self.peak_depth = 0
        self.total_pushed = 0

    def push(self, event: Event) -> None:
        if event.time < 0:
            raise ConfigurationError("event times must be >= 0")
        bisect.insort(
            self._entries,
            (event.time, int(event.kind), next(self._seq), event),
        )
        self.total_pushed += 1
        if len(self._entries) > self.peak_depth:
            self.peak_depth = len(self._entries)

    def pop(self) -> Event:
        if not self._entries:
            raise ConfigurationError("event queue is empty")
        return self._entries.pop(0)[3]

    def peek(self) -> Event:
        """The event :meth:`pop` would return, without removing it."""
        if not self._entries:
            raise ConfigurationError("event queue is empty")
        return self._entries[0][3]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
