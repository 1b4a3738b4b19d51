"""Compute-node local-disk cache for multi-pass applications.

Per Section 2.1: "Data Caching: if multiple passes over the data chunks
will be required, the chunks are saved to a local disk" and on later passes
"each subsequent pass retrieves data chunks from local disk, instead of
receiving it via network".

Writes stream sequentially (no per-chunk seek); reads pay the per-chunk
seek.  Cache time is charged inside the *compute* component of the
breakdown because it scales with the number of compute nodes, like ``t_c``
in the paper's model (see :class:`repro.simgrid.trace.PassRecord`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import DiskSpec

__all__ = ["CacheModel"]


@dataclass(frozen=True)
class CacheModel:
    """Timing model for one compute node's chunk cache."""

    disk: DiskSpec

    def write_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to append the received chunks to the cache file."""
        total = 0.0
        for size in chunk_sizes:
            if not 0 <= size < math.inf:
                raise ConfigurationError("chunk sizes must be finite and >= 0")
            total += size / self.disk.stream_bw
        return total

    @hot
    def read_time(self, chunk_sizes: Sequence[float]) -> float:
        """Seconds to re-read the cached chunks (seek per chunk)."""
        total = 0.0
        for size in chunk_sizes:
            if not 0 <= size < math.inf:
                raise ConfigurationError("chunk sizes must be finite and >= 0")
            total += self.disk.seek_s + size / self.disk.stream_bw
        return total
