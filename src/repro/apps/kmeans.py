"""k-means clustering as a FREERIDE-G generalized reduction.

Section 4.1 of the paper: data instances are partitioned among nodes; each
node accumulates, per cluster, the sum of its assigned points and their
count (instead of moving centres immediately); a global reduction combines
the local sums and recomputes the centres for the next iteration.

Model classes (Section 5): **constant reduction object size** (k ``(d+1)``
accumulators, independent of dataset size and node count) and
**linear-constant global reduction time** (merging ``c`` objects is linear
in the node count, independent of dataset size).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.base import distance_ops, farthest_point_init, pairwise_sq_dists
from repro.hotpath import hot
from repro.middleware.api import GeneralizedReduction
from repro.middleware.dataset import ArrayDataset
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["KMeansClustering"]


class KMeansClustering(GeneralizedReduction):
    """Fixed-iteration distributed k-means.

    Parameters
    ----------
    k:
        Number of clusters.
    num_iterations:
        Passes over the data.  Fixed (rather than convergence-tested) so
        every resource configuration performs identical work, as the
        prediction model requires.
    init_box:
        Half-width of the uniform box initial centres are drawn from.
    seed:
        Seed for the deterministic centre initialization.
    """

    name = "kmeans"
    broadcasts_result = True
    multi_pass_hint = True

    def __init__(
        self,
        k: int = 10,
        num_iterations: int = 10,
        init_box: float = 10.0,
        seed: int = 17,
    ) -> None:
        if k <= 0 or num_iterations <= 0:
            raise ConfigurationError("k and num_iterations must be positive")
        self.k = k
        self.num_iterations = num_iterations
        self.init_box = init_box
        self.seed = seed
        self.centers: np.ndarray | None = None
        self._num_dims = 0
        self._pass = 0
        self._shift_history: list[float] = []

    # ------------------------------------------------------------------
    # GeneralizedReduction interface
    # ------------------------------------------------------------------

    def begin(self, meta: Dict[str, Any]) -> None:
        self._num_dims = int(meta["num_dims"])
        sample = meta.get("init_sample")
        if sample is not None and len(sample) >= self.k:
            self.centers = farthest_point_init(sample, self.k, seed=self.seed)
        else:
            rng = np.random.default_rng(self.seed)
            self.centers = rng.uniform(
                -self.init_box, self.init_box, size=(self.k, self._num_dims)
            )
        self._pass = 0
        self._shift_history = []

    @hot
    def make_local_object(self) -> ArrayReductionObject:
        # Row i holds [sum of assigned points (d), assigned count (1)].
        return ArrayReductionObject.zeros((self.k, self._num_dims + 1))

    @hot
    def process_chunk(
        self, obj: ArrayReductionObject, payload: np.ndarray, ops: OpCounter
    ) -> None:
        points = np.asarray(payload, dtype=np.float64)
        values, counts, rows = self._fold(points, [len(points)])
        obj.accumulate(values[0], count=counts[0])
        ops.charge(*rows[0].tolist())

    @hot
    def process_pass(
        self, dataset: ArrayDataset
    ) -> Tuple[List[ArrayReductionObject], np.ndarray]:
        """Every chunk of ``dataset`` as :meth:`process_chunk` folds it into
        a fresh object, in one call: the pieces and their ``(chunks, 3)``
        (flop, mem, branch), bit for bit."""
        values, counts, rows = self._fold(
            np.asarray(dataset.records, dtype=np.float64), dataset.chunk_ends
        )
        # A bincount sum is never -0.0, so the fresh object's 0.0 + x is x.
        pieces = [
            ArrayReductionObject(piece, count)
            for piece, count in zip(values, counts)
        ]
        return pieces, rows

    @hot
    def _fold(
        self, points: np.ndarray, ends: Sequence[int]
    ) -> Tuple[np.ndarray, List[float], np.ndarray]:
        """The chunks of ``points`` ending at rows ``ends``, each folded
        alone: per chunk, cluster sums and counts ``(chunks, k, d + 1)``,
        row counts, and the (flop, mem, branch) it charges."""
        assert self.centers is not None, "begin() must run first"
        k, d = self.k, points.shape[1]
        sizes = np.diff(ends, prepend=0)
        bins = k * len(sizes)
        d2 = pairwise_sq_dists(points, self.centers, ends)
        # Bin chunk * k + cluster: bincount adds each bin's rows in row
        # order, as one bincount per chunk (and np.add.at before it) does.
        keys = np.repeat(np.arange(0, bins, k), sizes) + np.argmin(d2, axis=1)
        values = np.empty((bins, d + 1))
        for j in range(d):
            values[:, j] = np.bincount(keys, points[:, j], bins)
        values[:, d] = np.bincount(keys, minlength=bins)

        n = sizes.astype(np.float64)
        flop, mem, branch = distance_ops(n, k, d)
        # OpCounter's order: the distance charge, then the scatter of the
        # assigned points into the object.
        rows = np.empty((len(n), 3))
        rows[:, 0] = (0.0 + flop) + n * d
        rows[:, 1] = (0.0 + mem) + 2.0 * n * d
        rows[:, 2] = (0.0 + branch) + n
        return values.reshape(len(n), k, d + 1), n.tolist(), rows

    def object_nbytes(self, obj: ArrayReductionObject) -> float:
        return obj.nbytes

    combine = GeneralizedReduction.merge_local

    def update(self, combined: ArrayReductionObject, ops: OpCounter) -> bool:
        assert self.centers is not None
        d = self._num_dims
        sums = combined.values[:, :d]
        counts = combined.values[:, d]
        new_centers = self.centers.copy()
        occupied = counts > 0
        new_centers[occupied] = sums[occupied] / counts[occupied, None]

        shift = float(np.sqrt(((new_centers - self.centers) ** 2).sum()))
        self._shift_history.append(shift)
        self.centers = new_centers

        # Centre recomputation: one divide per coordinate plus the shift norm.
        ops.charge(
            flop=2.0 * self.k * d,
            mem=2.0 * self.k * d,
            branch=float(self.k),
        )

        self._pass += 1
        return self._pass < self.num_iterations

    def result(self) -> Dict[str, Any]:
        assert self.centers is not None
        return {
            "centers": self.centers.copy(),
            "iterations": self._pass,
            "shift_history": list(self._shift_history),
        }
