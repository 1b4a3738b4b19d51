"""Operation counters: how real kernels charge virtual compute time.

Every application kernel performs its computation for real (NumPy on the
actual synthetic data) and then *charges* the operations it just executed to
an :class:`OpCounter` — counts derived from the actual array shapes it
processed.  The cluster's :class:`~repro.simgrid.hardware.CPUSpec` converts
the accumulated counts into seconds.

This keeps timing deterministic (no wall-clock noise) while the computed
*results* — cluster centroids, detected vortices, defect catalogs — are
genuine.
"""

from __future__ import annotations

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import OpVector

__all__ = ["OpCounter"]


class OpCounter:
    """Accumulates operation counts charged by kernels, as three floats;
    an :class:`OpVector` is built only when a caller asks for one.

    >>> counter = OpCounter()
    >>> counter.charge(flop=100, mem=40)
    >>> counter.charge(branch=10)
    >>> counter.ops.total
    150.0
    """

    __slots__ = ("_flop", "_mem", "_branch")

    def __init__(self) -> None:
        self._flop = self._mem = self._branch = 0.0

    @property
    def ops(self) -> OpVector:
        """The accumulated operation vector."""
        return OpVector(self._flop, self._mem, self._branch)

    @hot
    def charge(self, flop: float = 0.0, mem: float = 0.0, branch: float = 0.0) -> None:
        """Add operation counts (each must be >= 0)."""
        if flop < 0 or mem < 0 or branch < 0:
            name = "flop" if flop < 0 else "mem" if mem < 0 else "branch"
            raise ConfigurationError(f"negative op count for {name}")
        self._flop += flop
        self._mem += mem
        self._branch += branch

    @hot
    def drain(self) -> tuple[float, float, float]:
        """The accumulated ``(flop, mem, branch)``; resets the counter."""
        out = (self._flop, self._mem, self._branch)
        self._flop = self._mem = self._branch = 0.0
        return out
