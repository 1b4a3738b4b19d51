"""Reference-core seconds: wall-clock with the core's speed taken out.

The box this benchmark was sized on shares its cores: a fixed pure-Python
loop runs anywhere between 0.7 and 1.4 times its usual speed from one
second to the next, independently on each core, and CPU time moves
exactly as wall-clock does.  No statistic of one run removes
that (see ``bench/README.md``), so the clock samples it instead.

While started, an interval timer interrupts the main thread every 20 ms
to run a fixed loop — a *slice* — and record the CPU time it took.  The
whole process tree is pinned to one core, so the slices and the work,
children included, see the same core.  Over an interval

- the slices' own time is taken out of the wall-clock,
- ``speed`` is ``REFERENCE_SLICE_S`` over the mean slice time, and
- the part of the interval the process tree spent on the core (its CPU
  time) is multiplied by ``speed``; the rest, spent waiting on a timer,
  a socket or a disk, counts as it is.

The result reads as seconds on a core that runs a slice in exactly one
millisecond.  The raw wall-clock is reported beside it.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple

INTERVAL_S = 0.02
SLICE_ITERATIONS = 20_000
#: About what a slice takes on the sizing box; any constant would do.
REFERENCE_SLICE_S = 0.001
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _slice() -> None:
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i


def _live_children(pid: int) -> Iterator[int]:
    """Every process below ``pid`` that has not been waited for."""
    for listing in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        for child in listing.read_text().split():
            yield int(child)
            yield from _live_children(int(child))


def _tree_cpu_s() -> float:
    """CPU seconds of this process and every child, ended or running."""
    ended = os.times()
    total = time.process_time() + ended.children_user + ended.children_system
    for pid in _live_children(os.getpid()):
        try:
            stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # ended since it was listed
        # After "pid (comm) ": state is field 3; utime, stime, cutime and
        # cstime are fields 14 to 17, in clock ticks.
        fields = stat.rpartition(")")[2].split()
        total += sum(int(f) for f in fields[11:15]) * TICK_S
    return total


@dataclass(frozen=True)
class Interval:
    """What the clock saw between two marks."""

    #: Wall-clock seconds, the slices' own time taken out.
    wall_s: float
    #: The same interval in reference-core seconds.
    ref_s: float
    #: Reference slice time over the mean measured slice time.
    speed: float
    #: Share of ``wall_s`` the process tree spent on the core.
    busy_share: float
    #: Number of slices the speed is the mean of.
    slices: int


class Mark(NamedTuple):
    """The clock's counters at one moment."""

    at: float  # time.perf_counter()
    slices: int
    slice_s: float  # CPU seconds the slices took
    tree_cpu_s: float


class ReferenceClock:
    """Pins the process to one core and samples that core's speed."""

    def __init__(self, started: float) -> None:
        """``started``: ``time.perf_counter()`` at the process's first line."""
        self._count = 0
        self._slice_s = 0.0
        self.started = Mark(started, 0, 0.0, 0.0)

    def start(self) -> None:
        # Stay on the core the scheduler chose: field 39 of the stat line.
        stat = pathlib.Path("/proc/self/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rpartition(")")[2].split()[36])})
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # The handler stays: an alarm already on its way must find it.
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        # CPU time of this thread, so a child that takes the core in the
        # middle of a slice does not read as a slow core.
        start = time.thread_time()
        _slice()
        self._slice_s += time.thread_time() - start
        self._count += 1

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self._count, self._slice_s, _tree_cpu_s())

    def since(self, mark: Mark) -> Interval:
        now = self.mark()
        slices = now.slices - mark.slices
        if slices == 0:
            raise RuntimeError("no speed sample in the interval: is the clock started?")
        slice_s = now.slice_s - mark.slice_s
        wall_s = now.at - mark.at - slice_s
        busy_s = min(max(now.tree_cpu_s - mark.tree_cpu_s - slice_s, 0.0), wall_s)
        speed = REFERENCE_SLICE_S / (slice_s / slices)
        return Interval(
            wall_s=wall_s,
            ref_s=(wall_s - busy_s) + busy_s * speed,
            speed=speed,
            busy_share=busy_s / wall_s,
            slices=slices,
        )
