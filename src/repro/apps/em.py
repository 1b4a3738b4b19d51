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

from typing import Any, Dict

import numpy as np

from repro.apps.base import farthest_point_init
from repro.hotpath import hot
from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["EMClustering"]

_COV_EPS = 1.0e-4


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
        n, d = points.shape
        # resp is (k, n); diff is the (k, d, n) centring it was built from.
        resp, log_evidence, diff = self._responsibilities(points)

        if self._phase == "E":
            contribution = np.empty(self.k * (d + 1) + 1)
            contribution[: self.k] = resp.sum(axis=1)
            contribution[self.k : -1] = (resp @ points).ravel()
            contribution[-1] = log_evidence.sum()
        else:
            # One (d, n) @ (n, d) GEMM per component.
            weighted = resp[:, None, :] * diff
            contribution = np.matmul(weighted, diff.transpose(0, 2, 1)).ravel()
        obj.accumulate(contribution, count=float(n))

        # The density evaluation (Mahalanobis forms) dominates: n*k*d^2
        # multiply-adds, plus exponentials — a FLOP-heavy mix, giving EM a
        # *higher* cross-cluster compute factor than the branchy kNN scan.
        nk = float(n) * self.k
        ops.charge(
            flop=nk * (d * d + 3.0 * d + 12.0),
            mem=float(n) * d + self.k * d * d + nk,
            branch=nk,
        )
        if self._phase == "M":
            ops.charge(flop=nk * d * d, mem=nk * d)

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
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Posterior component probabilities ``(k, n)``, per-point log
        evidence, and the centred points ``(k, d, n)`` (the M pass's scatter
        reuses them); points run along the last, contiguous axis throughout,
        so reductions over components are element-wise on length-``n`` rows."""
        assert self.means is not None and self._precisions is not None
        assert self._log_prior is not None
        diff = np.ascontiguousarray(points.T) - self.means[:, :, None]  # (k, d, n)
        projected = np.matmul(self._precisions, diff)
        maha = np.einsum("kdn,kdn->kn", projected, diff)
        log_weighted = self._log_prior - 0.5 * maha
        top = log_weighted.max(axis=0)
        resp = np.exp(log_weighted - top)
        norm = resp.sum(axis=0)
        resp /= norm
        return resp, top + np.log(norm), diff
