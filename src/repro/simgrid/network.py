"""Network transfer models.

Two pieces live here:

- :class:`LinkModel` — latency + bandwidth cost of a point-to-point link,
  used for repository-to-compute chunk shipping.  The available bandwidth
  between storage and compute nodes is a *parameter* (the paper varies it
  synthetically in Section 5.3), so the middleware passes the experiment's
  bandwidth in rather than reading a fixed hardware value.
- :class:`CommCostModel` — the experimentally determined ``(w, l)`` of
  Section 3.3.1 ("w and l are experimentally determined bandwidth and
  latency for the target processing configuration"), obtained by fitting a
  line to a gather microbenchmark run on the simulated cluster.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec

__all__ = ["LinkModel", "fit_linear_cost", "CommCostModel"]


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point link with per-message latency and bandwidth."""

    latency_s: float
    bw: float  # bytes per second

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("link latency must be >= 0")
        if self.bw <= 0:
            raise ConfigurationError("link bandwidth must be > 0")

    @hot
    def message_time(self, nbytes: float) -> float:
        """Seconds to transfer one message."""
        if nbytes < 0:
            raise ConfigurationError("cannot transfer a negative size")
        return self.latency_s + nbytes / self.bw

    @hot
    def stream_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to push a sequence of chunks back-to-back.

        Inlines :meth:`message_time` with the frozen-dataclass attribute
        loads hoisted out of the loop (REP303 burn-down); the additions
        happen in the same order with the same operands, so the result
        is bit-identical to summing per-message times.
        """
        latency = self.latency_s
        bw = self.bw
        total = 0.0
        for size in chunk_sizes:
            if size < 0:
                raise ConfigurationError("cannot transfer a negative size")
            total += latency + size / bw
        return total


def fit_linear_cost(
    sizes: Sequence[float], times: Sequence[float]
) -> tuple[float, float]:
    """Least-squares fit ``time = w * size + l``; returns ``(w, l)``.

    Used to turn microbenchmark (size, time) samples into the paper's
    per-byte cost ``w`` and latency ``l``.  The solve is remembered by
    the *values* of the samples, so equal clusters share one fit and
    every prediction after a cluster's first reuses it — Section 3.3.1
    determines ``w`` and ``l`` once per target configuration.
    """
    return _fit_samples(tuple(sizes), tuple(times))


@functools.lru_cache(maxsize=64)
def _fit_samples(
    sizes: tuple[float, ...], times: tuple[float, ...]
) -> tuple[float, float]:
    if len(sizes) != len(times):
        raise ConfigurationError("sizes and times must have equal length")
    if len(sizes) < 2:
        raise ConfigurationError("need at least two samples to fit a line")
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times, dtype=float)
    if np.ptp(x) <= 0.0:
        raise ConfigurationError("samples must span at least two distinct sizes")
    design = np.stack([x, np.ones_like(x)], axis=1)
    (w, l), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(w), float(l)


@dataclass(frozen=True)
class CommCostModel:
    """Fitted reduction-object message cost: ``time = w * bytes + l``.

    ``w`` and ``l`` correspond exactly to Section 3.3.1's experimentally
    determined bandwidth and latency for the target processing
    configuration.
    """

    w: float  # seconds per byte
    l: float  # seconds per message

    def __post_init__(self) -> None:
        if self.w < 0 or self.l < 0:
            raise ConfigurationError("fitted comm costs must be >= 0")

    def message_time(self, nbytes: float) -> float:
        """Predicted time for a single reduction-object message."""
        if nbytes < 0:
            raise ConfigurationError("cannot transfer a negative size")
        return self.w * nbytes + self.l

    def gather_time(self, num_compute_nodes: int, object_bytes: float) -> float:
        """Predicted time to gather one object from each non-master node.

        The FREERIDE-G master receives ``c - 1`` reduction objects serially
        (the serialized component of parallel processing time, Section
        3.3.1), so the gather is ``(c - 1)`` messages.
        """
        if num_compute_nodes < 1:
            raise ConfigurationError("need at least one compute node")
        return (num_compute_nodes - 1) * self.message_time(object_bytes)

    @classmethod
    def fit_for_cluster(
        cls,
        cluster: ClusterSpec,
        probe_sizes: Sequence[float] = (1024.0, 8192.0, 65536.0, 524288.0),
    ) -> "CommCostModel":
        """Run the gather microbenchmark on ``cluster`` and fit ``(w, l)``.

        The microbenchmark measures single reduction-object messages on the
        intra-cluster interconnect, mirroring how a FREERIDE-G deployment
        would calibrate ``w`` and ``l`` once per cluster.
        """
        times = [cluster.gather_message_time(size) for size in probe_sizes]
        w, l = fit_linear_cost(probe_sizes, times)
        return cls(w=max(w, 0.0), l=max(l, 0.0))
