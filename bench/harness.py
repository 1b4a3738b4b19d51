"""What every workload shares: the measurement record, statistics, digests.

A workload object lives for one run in one process::

    w = SomeWorkload(seed, smoke, scratch_dir, clock)
    w.setup()                      # timed by the caller as ``setup_s``
    m = w.measure(seconds)         # tracing off: the end-to-end numbers
    layer = w.trace(tracer, seconds)  # or: the per-layer numbers
    w.close()
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from bench.refclock import Interval, ReferenceClock
from bench.tracing import Tracer

__all__ = ["Measurement", "Traced", "Workload", "digest", "file_digest", "p95", "repeat_for"]


@dataclass
class Measurement:
    """One untraced measuring window.

    ``samples_ms`` holds one wall-clock time per operation, ``units`` the
    work completed inside the workload's :meth:`Workload.window`.
    ``problems`` lists failed output checks: any entry fails the run, it
    is not a metric.
    """

    samples_ms: List[float]
    units: float
    attempted: int
    failed: int
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Traced:
    """One traced run: the workload's own per-layer metrics and its checks.

    ``untraced_ms`` and ``traced_ms`` time the same operation in the same
    process without and with spans; their medians give the overhead.
    """

    metrics: Dict[str, float]
    untraced_ms: List[float]
    traced_ms: List[float]
    attempted: int
    failed: int
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class; subclasses document what one operation and one unit are."""

    name = ""
    #: What one timed sample is.
    operation = ""
    #: What ``work_per_ref_s`` counts.
    unit = ""
    #: Whose ``ru_maxrss`` is ``peak_rss_mb``: "self" or "children".
    rss_of = "self"

    def __init__(
        self, seed: int, smoke: bool, scratch: pathlib.Path, clock: ReferenceClock
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.clock = clock
        #: Input sizes and repetition counts, for the output document.
        self.sizes: Dict[str, Any] = {}
        #: What the clock saw of the last :meth:`window`.
        self.measured: Optional[Interval] = None

    @contextlib.contextmanager
    def window(self) -> Iterator[None]:
        """The measuring window: the operations, not the checks after them."""
        start = self.clock.mark()
        yield
        self.measured = self.clock.since(start)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started and wait for it."""


def p95(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def digest(data: Any) -> str:
    """sha256 of ``data`` as sorted-key JSON (or of raw bytes)."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(paths: Sequence[pathlib.Path]) -> str:
    """One sha256 over the named files' names and bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def repeat_for(
    seconds: float, min_reps: int, operation: Callable[[], Any]
) -> tuple[List[float], List[Any]]:
    """Call ``operation`` until ``seconds`` have passed and ``min_reps`` ran.

    Returns (per-call milliseconds, per-call results).
    """
    samples: List[float] = []
    results: List[Any] = []
    total = 0.0
    while total < seconds or len(samples) < min_reps:
        start = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - start
        samples.append(elapsed * 1e3)
        results.append(result)
        total += elapsed
    return samples, results
