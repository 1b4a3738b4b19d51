"""Shared numerical kernels and op-charging conventions.

Applications charge three operation categories (see
:class:`repro.simgrid.hardware.OpCategory`):

- ``flop``   — arithmetic on array elements,
- ``mem``    — element loads/stores beyond those fused into arithmetic,
- ``branch`` — comparisons, thresholding, control-heavy scanning.

The absolute calibration is unimportant (it cancels in every prediction
ratio); what matters is that counts are *proportional to the real work*
performed on the actual arrays, and that different applications have
different category mixes — the source of the paper's per-application
cross-cluster compute scaling factors (Section 5.4).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import UsageError
from repro.hotpath import hot

__all__ = ["pairwise_sq_dists", "distance_ops", "farthest_point_init"]


def farthest_point_init(
    sample: np.ndarray, k: int, seed: int = 0
) -> np.ndarray:
    """Pick ``k`` well-separated seed centres from a data sample.

    Greedy farthest-point traversal: start from a deterministic point,
    repeatedly add the sample point farthest from the chosen set.  Robust
    (and deterministic) initialization for k-means and EM.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] < k:
        raise UsageError(
            f"need a 2-D sample with at least {k} points, got {sample.shape}"
        )
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(sample.shape[0]))]
    min_d2 = ((sample - sample[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = ((sample - sample[nxt]) ** 2).sum(axis=1)
        np.minimum(min_d2, d2, out=min_d2)
    return sample[chosen].copy()


@hot
def pairwise_sq_dists(
    points: np.ndarray,
    centers: np.ndarray,
    ends: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Squared Euclidean distances, shape ``(len(points), len(centers))``.

    Uses the expanded form ``|x|^2 - 2 x.c + |c|^2`` so the dominant cost is
    one GEMM — the idiomatic vectorization for this kernel.  ``ends`` (one
    past the last row of each block, ascending) runs one GEMM per block of
    rows instead: BLAS picks its kernel by shape (a one-row block or a
    single centre is a GEMV), so only a per-block product is bit-identical
    to calling this on each block alone.  The rest is element-wise.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    d2 = np.empty((len(points), len(centers)))
    start = 0
    for end in (len(points),) if ends is None else ends:
        np.matmul(points[start:end], centers.T, out=d2[start:end])
        start = end
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", points, points)[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)
    np.maximum(d2, 0.0, out=d2)
    return d2


@hot
def distance_ops(num_points, num_centers: int, num_dims: int) -> tuple:
    """``(flop, mem, branch)`` of a points-by-centers distance evaluation;
    ``num_points`` is a float, or a float array with one count per block."""
    nkd = num_points * num_centers * num_dims
    return (
        3.0 * nkd,
        num_points * num_dims + float(num_centers) * num_dims,
        num_points * num_centers,
    )
