"""Expectation-Maximization clustering as a FREERIDE-G reduction.

Section 4.2 of the paper: the dataset is modelled as a mixture of
multivariate normal distributions; parallelization "is accomplished through
iteratively alternating local and global processing, corresponding to each
one of E and M steps".  Each EM iteration is therefore **two passes** over
the data:

- **E pass** — every node accumulates, from its local data, the per-
  component responsibility masses ``N_k``, the weighted point sums ``F_k``
  and the log-likelihood; the master combines them and recomputes means and
  mixture weights, which are broadcast back.
- **M pass** — every node accumulates the responsibility-weighted scatter
  matrices ``S_k`` about the new means; the master combines them and
  recomputes the covariances, which are broadcast back.

Progress is monitored through the monotonically accumulated log-likelihood
(the paper's stopping statistic); the pass count is fixed so every resource
configuration performs identical work.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.base import farthest_point_init
from repro.hotpath import hot
from repro.middleware.api import GeneralizedReduction
from repro.middleware.dataset import ArrayDataset
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["EMClustering"]

_COV_EPS = 1.0e-4

#: Points per block of a batched pass.  Whole-dataset blocks were slower
#: than per-chunk calls (their ``(k, d, n)`` temporaries leave the cache and
#: BLAS goes multi-threaded); a few thousand points keep both in check.
_BLOCK_ROWS = 4096


class EMClustering(GeneralizedReduction):
    """Fixed-iteration distributed EM for a full-covariance Gaussian mixture.

    Parameters
    ----------
    k:
        Mixture components.
    num_iterations:
        EM iterations; each is one E pass plus one M pass.
    init_box:
        Half-width of the uniform box initial means are drawn from.
    seed:
        Seed for the deterministic parameter initialization.
    """

    name = "em"
    broadcasts_result = True
    multi_pass_hint = True

    def __init__(
        self,
        k: int = 6,
        num_iterations: int = 5,
        init_box: float = 10.0,
        seed: int = 29,
    ) -> None:
        if k <= 0 or num_iterations <= 0:
            raise ConfigurationError("k and num_iterations must be positive")
        self.k = k
        self.num_iterations = num_iterations
        self.init_box = init_box
        self.seed = seed
        self.means: np.ndarray | None = None
        self.covs: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self._num_dims = 0
        self._phase = "E"
        self._iteration = 0
        self._nk: np.ndarray | None = None
        self._loglik_history: list[float] = []
        self._precisions: np.ndarray | None = None
        self._log_prior: np.ndarray | None = None

    # ------------------------------------------------------------------
    # GeneralizedReduction interface
    # ------------------------------------------------------------------

    def begin(self, meta: Dict[str, Any]) -> None:
        d = int(meta["num_dims"])
        self._num_dims = d
        sample = meta.get("init_sample")
        if sample is not None and len(sample) >= self.k:
            self.means = farthest_point_init(sample, self.k, seed=self.seed)
        else:
            rng = np.random.default_rng(self.seed)
            self.means = rng.uniform(
                -self.init_box, self.init_box, size=(self.k, d)
            )
        self.covs = np.repeat(np.eye(d)[None, :, :] * 4.0, self.k, axis=0)
        self.weights = np.full(self.k, 1.0 / self.k)
        self._phase = "E"
        self._iteration = 0
        self._nk = None
        self._loglik_history = []
        self._refresh_precisions()

    @hot
    def make_local_object(self) -> ArrayReductionObject:
        d = self._num_dims
        if self._phase == "E":
            # [N_k (k)] + [F_k (k*d)] + [loglik (1)]
            return ArrayReductionObject.zeros(self.k * (d + 1) + 1)
        # M phase: scatter matrices S_k, flattened.
        return ArrayReductionObject.zeros(self.k * d * d)

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
        values, counts, rows = self._fold(dataset.records, dataset.chunk_ends)
        # The fresh object's 0.0 + x: a GEMM over a short chunk can sum
        # -0.0 products to -0.0, which the fresh object turns into 0.0.
        values += 0.0
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
        alone: per chunk, its contribution, row count and the (flop, mem,
        branch) it charges.

        Chunks go through :meth:`_responsibilities` a block at a time
        (:func:`_blocks`), in workspaces reused by every block.  Each
        per-chunk reduction keeps that chunk's own shapes — sums over its
        ``s`` points, one ``(k, s) @ (s, d)`` and one ``(d, s) @ (s, d)``
        product per component — never one product across chunks, so a
        block gives each chunk the bits it gets alone.
        """
        k, d = self.k, points.shape[1]
        sizes = np.diff(ends, prepend=0)
        e_pass = self._phase == "E"
        values = np.empty((len(sizes), k * (d + 1) + 1 if e_pass else k * d * d))
        blocks = _blocks(sizes.tolist())
        spaces = _workspaces(k, d, max(chunks * size for _, chunks, size in blocks))
        lo = 0
        for first, chunks, size in blocks:
            block = np.asarray(points[lo : lo + chunks * size], dtype=np.float64)
            lo += chunks * size
            resp, log_evidence, diff = self._responsibilities(block, spaces)
            out = values[first : first + chunks]
            by_chunk = resp.reshape(k, chunks, size)
            if e_pass:
                out[:, :k] = by_chunk.sum(axis=2).T
                sums = np.matmul(
                    by_chunk.transpose(1, 0, 2), block.reshape(chunks, size, d)
                )
                out[:, k:-1] = sums.reshape(chunks, k * d)
                out[:, -1] = log_evidence.reshape(chunks, size).sum(axis=1)
            else:
                # _responsibilities is done with its second workspace.
                weighted = spaces[1][: diff.size].reshape(diff.shape)
                np.multiply(resp[:, None, :], diff, out=weighted)
                scatter = np.matmul(
                    weighted.reshape(k, d, chunks, size).transpose(2, 0, 1, 3),
                    diff.reshape(k, d, chunks, size).transpose(2, 0, 3, 1),
                )
                out[:] = scatter.reshape(chunks, k * d * d)

        # The density evaluation (Mahalanobis forms) dominates: n*k*d^2
        # multiply-adds, plus exponentials — a FLOP-heavy mix, giving EM a
        # *higher* cross-cluster compute factor than the branchy kNN scan.
        # OpCounter's order: (0.0 + the density charge) + the M scatter's.
        n = sizes.astype(np.float64)
        nk = n * k
        rows = np.empty((len(n), 3))
        rows[:, 0] = 0.0 + nk * (d * d + 3.0 * d + 12.0)
        rows[:, 1] = 0.0 + (n * d + k * d * d + nk)
        rows[:, 2] = 0.0 + nk
        if not e_pass:
            rows[:, 0] += nk * d * d
            rows[:, 1] += nk * d
        return values, n.tolist(), rows

    def object_nbytes(self, obj: ArrayReductionObject) -> float:
        return obj.nbytes

    combine = GeneralizedReduction.merge_local

    def update(self, combined: ArrayReductionObject, ops: OpCounter) -> bool:
        assert self.means is not None and self.covs is not None
        d = self._num_dims
        if self._phase == "E":
            nk = np.maximum(combined.values[: self.k], 1.0e-12)
            fk = combined.values[self.k : self.k + self.k * d].reshape(self.k, d)
            self._nk = nk
            self.means = fk / nk[:, None]
            self.weights = nk / max(combined.count, 1.0)
            self._refresh_precisions()  # new weights: the log-prior column follows
            self._loglik_history.append(float(combined.values[-1]))
            ops.charge(flop=2.0 * self.k * d, mem=2.0 * self.k * d)
            self._phase = "M"
            return True

        assert self._nk is not None
        scatter = combined.values.reshape(self.k, d, d)
        covs = scatter / self._nk[:, None, None]
        covs += np.eye(d)[None, :, :] * _COV_EPS
        # Symmetrize against accumulation round-off.
        self.covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
        self._refresh_precisions()
        # Covariance inversion: k * d^3.
        ops.charge(flop=float(self.k) * d**3, mem=float(self.k) * d * d)
        self._phase = "E"
        self._iteration += 1
        return self._iteration < self.num_iterations

    def result(self) -> Dict[str, Any]:
        assert self.means is not None and self.covs is not None
        return {
            "means": self.means.copy(),
            "covariances": self.covs.copy(),
            "weights": None if self.weights is None else self.weights.copy(),
            "loglik_history": list(self._loglik_history),
            "iterations": self._iteration,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _refresh_precisions(self) -> None:
        """Refresh what a pass holds fixed: precisions and log(weight x normaliser)."""
        assert self.covs is not None and self.weights is not None
        d = self._num_dims if self._num_dims else self.covs.shape[-1]
        self._precisions = np.linalg.inv(self.covs)
        sign, logdet = np.linalg.slogdet(self.covs)
        if np.any(sign <= 0):
            raise ConfigurationError("covariance matrix lost positive definiteness")
        log_norms = -0.5 * (d * np.log(2.0 * np.pi) + logdet)
        log_weights = np.log(np.maximum(self.weights, 1.0e-300))
        self._log_prior = (log_norms + log_weights)[:, None]

    @hot
    def _responsibilities(
        self,
        points: np.ndarray,
        spaces: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Posterior component probabilities ``(k, n)``, per-point log
        evidence, and the centred points ``(k, d, n)`` (the M pass's scatter
        reuses them); points run along the last, contiguous axis throughout,
        so reductions over components are element-wise on length-``n`` rows.
        The arrays are views of ``spaces`` (:func:`_workspaces`), fresh
        ones by default."""
        assert self.means is not None and self._precisions is not None
        assert self._log_prior is not None
        k, (n, d) = self.k, points.shape
        diff_space, work_space, resp_space = spaces or _workspaces(k, d, n)
        diff = diff_space[: k * d * n].reshape(k, d, n)
        np.subtract(points.T, self.means[:, :, None], out=diff)
        projected = work_space[: k * d * n].reshape(k, d, n)
        np.matmul(self._precisions, diff, out=projected)
        resp = resp_space[: k * n].reshape(k, n)
        np.einsum("kdn,kdn->kn", projected, diff, out=resp)
        resp *= 0.5
        np.subtract(self._log_prior, resp, out=resp)
        top = resp.max(axis=0)
        resp -= top
        np.exp(resp, out=resp)
        norm = resp.sum(axis=0)
        resp /= norm
        return resp, top + np.log(norm), diff


def _workspaces(
    k: int, d: int, rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat buffers for :meth:`EMClustering._responsibilities` on up to
    ``rows`` points: two of ``k * d * rows`` elements, one of ``k * rows``."""
    return np.empty(k * d * rows), np.empty(k * d * rows), np.empty(k * rows)


def _blocks(sizes: List[int]) -> List[Tuple[int, int, int]]:
    """``(first chunk, chunks, rows per chunk)`` of each block of a pass:
    contiguous runs of equal-length chunks, cut to about ``_BLOCK_ROWS``
    points.  A one-row chunk is a block alone: BLAS runs its products as
    GEMVs, whose bits differ from a longer GEMM's (an empty chunk is alone
    too)."""
    blocks: List[Tuple[int, int, int]] = []
    first = 0
    for size, run in itertools.groupby(sizes):
        end = first + sum(1 for _ in run)
        step = 1 if size <= 1 else max(1, _BLOCK_ROWS // size)
        for start in range(first, end, step):
            blocks.append((start, min(step, end - start), size))
        first = end
    return blocks
