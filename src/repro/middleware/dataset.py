"""Chunked dataset abstraction.

FREERIDE-G "expects data to be stored in chunks, whose size is manageable
for the repository nodes" (Section 2.1).  A :class:`Dataset` is therefore a
sequence of chunks, each with a byte size and an application-interpretable
payload.  :class:`ArrayDataset` covers the point-cloud data-mining
applications (k-means, EM, kNN); the scientific applications subclass
:class:`Dataset` in :mod:`repro.datagen` to provide spatially partitioned
chunks with halo overlap.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = ["Dataset", "ArrayDataset"]


class Dataset(abc.ABC):
    """A named, chunked dataset.

    Parameters
    ----------
    name:
        Dataset identifier (also the replica-catalog key).
    nbytes:
        Total size in model bytes; drives retrieval/communication time.
    num_chunks:
        Number of chunks the repository stores the dataset as.
    meta:
        Application-facing metadata passed to
        :meth:`repro.middleware.api.GeneralizedReduction.begin`.
    """

    def __init__(
        self,
        name: str,
        nbytes: float,
        num_chunks: int,
        meta: Dict[str, Any] | None = None,
    ) -> None:
        if nbytes <= 0:
            raise ConfigurationError("dataset size must be positive")
        if num_chunks <= 0:
            raise ConfigurationError("dataset must have at least one chunk")
        self.name = name
        self.nbytes = float(nbytes)
        self.num_chunks = int(num_chunks)
        self.meta = dict(meta or {})

    @abc.abstractmethod
    def chunk_payload(self, index: int) -> Any:
        """The data of chunk ``index`` as the application consumes it."""

    def chunk_nbytes(self, index: int) -> float:
        """Size of chunk ``index`` in model bytes (uniform by default)."""
        self._check_index(index)
        return self.nbytes / self.num_chunks

    @functools.cached_property
    def chunk_sizes(self) -> Tuple[float, ...]:
        """:meth:`chunk_nbytes` of every chunk, once: datasets never change."""
        return tuple(self.chunk_nbytes(c) for c in range(self.num_chunks))

    @hot
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_chunks:
            raise ConfigurationError(
                f"chunk index {index} out of range (0..{self.num_chunks - 1})"
            )

    def __len__(self) -> int:
        return self.num_chunks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, nbytes={self.nbytes:.3g}, "
            f"num_chunks={self.num_chunks})"
        )


class ArrayDataset(Dataset):
    """A dataset of fixed-width records stored in a 2-D NumPy array.

    Chunks are contiguous row ranges.  ``nbytes`` may exceed
    ``records.nbytes`` when the dataset models a scaled-down replica of a
    larger store — chunk payloads stay laptop-sized while byte accounting
    follows the declared model size.
    """

    def __init__(
        self,
        name: str,
        records: np.ndarray,
        num_chunks: int,
        nbytes: float | None = None,
        meta: Dict[str, Any] | None = None,
    ) -> None:
        records = np.asarray(records)
        if records.ndim != 2:
            raise ConfigurationError("ArrayDataset records must be 2-D (rows, dims)")
        if records.shape[0] < num_chunks:
            raise ConfigurationError(
                f"cannot split {records.shape[0]} records into {num_chunks} chunks"
            )
        super().__init__(
            name=name,
            nbytes=float(records.nbytes) if nbytes is None else float(nbytes),
            num_chunks=num_chunks,
            meta=meta,
        )
        self.records = records
        # Contiguous row ranges, sized as evenly as integer division allows.
        edges = np.linspace(0, records.shape[0], num_chunks + 1).astype(int)
        self._bounds = list(zip(edges[:-1], edges[1:]))
        #: One past the last row of every chunk, in chunk order.
        self.chunk_ends: List[int] = edges[1:].tolist()

    @property
    def num_records(self) -> int:
        """Total record count."""
        return int(self.records.shape[0])

    @property
    def num_dims(self) -> int:
        """Record width."""
        return int(self.records.shape[1])

    @hot
    def chunk_payload(self, index: int) -> np.ndarray:
        """A view of the rows belonging to chunk ``index``."""
        self._check_index(index)
        lo, hi = self._bounds[index]
        return self.records[lo:hi]

    @hot
    def chunk_nbytes(self, index: int) -> float:
        """Model bytes of chunk ``index``, proportional to its row count."""
        self._check_index(index)
        lo, hi = self._bounds[index]
        return self.nbytes * (hi - lo) / self.records.shape[0]
