"""Reduction-object helpers shared by the applications.

Two reduction-object shapes cover the paper's five applications:

- :class:`ArrayReductionObject` — a fixed-shape accumulator array plus a
  sample counter.  Its size is determined by application parameters only
  (k-means centroid sums, EM sufficient statistics, kNN candidate lists):
  the paper's **constant reduction object size** class.
- :class:`FeatureListReductionObject` — a list of extracted features whose
  length scales with the data each node processed (vortex fragments,
  molecular defects): the paper's **linear reduction object size** class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = ["ArrayReductionObject", "FeatureListReductionObject"]


@dataclass(slots=True)
class ArrayReductionObject:
    """A fixed-shape accumulator: element-wise sums plus a sample count."""

    values: np.ndarray
    count: float = 0.0

    @classmethod
    @hot
    def zeros(cls, shape: Sequence[int] | int) -> "ArrayReductionObject":
        """A zero-initialized accumulator of the given shape."""
        return cls(values=np.zeros(shape, dtype=np.float64), count=0.0)

    @property
    def nbytes(self) -> float:
        """Serialized size: the array plus the 8-byte counter."""
        return float(self.values.nbytes) + 8.0

    @hot
    def accumulate(self, contribution: np.ndarray, count: float = 0.0) -> None:
        """Element-wise add a contribution (associative and commutative)."""
        contribution = np.asarray(contribution)
        if contribution.shape != self.values.shape:
            raise ConfigurationError(
                f"contribution shape {contribution.shape} does not match "
                f"accumulator shape {self.values.shape}"
            )
        self.values += contribution
        self.count += count

    @hot
    def merge(self, other: "ArrayReductionObject") -> None:
        """Fold another accumulator into this one."""
        self.accumulate(other.values, other.count)

    def copy(self) -> "ArrayReductionObject":
        """An independent copy."""
        return ArrayReductionObject(values=self.values.copy(), count=self.count)


@dataclass
class FeatureListReductionObject:
    """A list of features extracted from the node's local data.

    Each feature is a plain dict (centroid, extent, strength, ...).  The
    serialized size is ``len(features) * bytes_per_feature`` — linear in the
    amount of data the node processed, which is what puts the scientific
    applications in the paper's *linear object size* class.
    """

    bytes_per_feature: float
    features: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.bytes_per_feature <= 0:
            raise ConfigurationError("bytes_per_feature must be positive")

    @property
    def nbytes(self) -> float:
        """Serialized size (8-byte header when empty)."""
        return 8.0 + self.bytes_per_feature * len(self.features)

    def add(self, feature: Dict[str, Any]) -> None:
        """Append one extracted feature."""
        self.features.append(feature)

    def extend(self, features: Sequence[Dict[str, Any]]) -> None:
        """Append many extracted features."""
        self.features.extend(features)

    def merge(self, other: "FeatureListReductionObject") -> None:
        """Concatenate another node's feature list (order-independent)."""
        if other.bytes_per_feature != self.bytes_per_feature:
            raise ConfigurationError("cannot merge feature lists of different widths")
        self.features.extend(other.features)

    def __len__(self) -> int:
        return len(self.features)
