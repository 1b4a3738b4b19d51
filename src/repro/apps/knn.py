"""k-nearest-neighbour search as a FREERIDE-G generalized reduction.

Section 4.3 of the paper: training samples are distributed among nodes;
each node scans the samples it owns to maintain the k nearest neighbours of
every query (Euclidean distance); a global reduction computes the overall
k nearest from the per-node candidate sets.

The per-query candidate set is a *min-k semilattice* on distances:
merging candidate sets is associative, commutative and idempotent, so
chunk placement cannot change the distances.  It can change which of two
equally distant samples is kept, so ties follow one rule: candidates are
ordered by (distance, column), which puts the lower record index first
within a chunk and the earlier piece in hand-out order first across
pieces.  The reduction object holds ``q x k`` (distance, label) pairs —
**constant object size** — and merging ``c`` such objects makes the
global reduction **linear-constant**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from repro.apps.base import distance_ops, pairwise_sq_dists
from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.simgrid.errors import ConfigurationError

__all__ = ["KNNSearch", "KNNCandidates"]


@dataclass
class KNNCandidates:
    """Per-query best-k candidates: parallel (distances, labels) arrays."""

    dists: np.ndarray  # (num_queries, k) squared distances, +inf padded
    labels: np.ndarray  # (num_queries, k) class labels, -1 padded

    @classmethod
    def empty(cls, num_queries: int, k: int) -> "KNNCandidates":
        return cls(
            dists=np.full((num_queries, k), np.inf, dtype=np.float64),
            labels=np.full((num_queries, k), -1.0, dtype=np.float64),
        )

    @property
    def nbytes(self) -> float:
        return float(self.dists.nbytes + self.labels.nbytes) + 8.0

    def absorb(self, new_dists: np.ndarray, new_labels: np.ndarray) -> None:
        """Merge candidate columns and keep the k smallest per query."""
        self._keep(
            np.concatenate([self.dists, new_dists], axis=1),
            np.concatenate([self.labels, new_labels], axis=1),
        )

    def merge(self, *others: "KNNCandidates") -> None:
        """Fold other candidate sets into this one, in order, with one
        selection: the first k of a stable sort of ``A + B`` where ``A``
        is the stable first k of ``X`` are the first k of ``X + B``, so
        this is the one-at-a-time fold."""
        if not others:
            return
        self._keep(
            np.concatenate([self.dists, *(o.dists for o in others)], axis=1),
            np.concatenate([self.labels, *(o.labels for o in others)], axis=1),
        )

    def _keep(self, dists: np.ndarray, labels: np.ndarray) -> None:
        """Keep each row's k smallest columns, ordered by (distance, column)."""
        rows = np.arange(dists.shape[0])[:, None]
        cols = _smallest(dists, self.dists.shape[1])
        cols = cols[rows, np.argsort(dists[rows, cols], axis=1, kind="stable")]
        self.dists = dists[rows, cols]
        self.labels = labels[rows, cols]


def _smallest(d: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's ``k`` smallest values by (value, column),
    in ascending column order (``k <= d.shape[1]``).

    A k-th-value threshold picks them when it is exact: every row then
    has exactly ``k`` values at or below its k-th smallest.  Ties at the
    k-th value, +inf padding past it or NaN fall back to the stable sort
    that defines the answer.
    """
    q, n = d.shape
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    flat = np.flatnonzero(d <= kth)
    if flat.size == q * k and not np.isnan(kth).any():
        return flat.reshape(q, k) - np.arange(0, q * n, n)[:, None]
    return np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)


class KNNSearch(GeneralizedReduction):
    """Batch kNN classification of a fixed query set.

    Parameters
    ----------
    k:
        Neighbours per query.
    num_queries:
        Size of the query batch (generated deterministically in
        :meth:`begin` from ``seed`` inside the training data's bounding
        box).
    seed:
        Query-generation seed.
    """

    name = "knn"
    broadcasts_result = False
    multi_pass_hint = False

    def __init__(self, k: int = 8, num_queries: int = 64, seed: int = 23) -> None:
        if k <= 0 or num_queries <= 0:
            raise ConfigurationError("k and num_queries must be positive")
        self.k = k
        self.num_queries = num_queries
        self.seed = seed
        self.queries: np.ndarray | None = None
        self._num_dims = 0
        self._final: KNNCandidates | None = None

    def begin(self, meta: Dict[str, Any]) -> None:
        self._num_dims = int(meta["num_dims"])
        rng = np.random.default_rng(self.seed)
        box = float(meta.get("query_box", 10.0))
        self.queries = rng.uniform(
            -box, box, size=(self.num_queries, self._num_dims)
        )
        self._final = None

    def make_local_object(self) -> KNNCandidates:
        return KNNCandidates.empty(self.num_queries, self.k)

    def process_chunk(
        self, obj: KNNCandidates, payload: np.ndarray, ops: OpCounter
    ) -> None:
        assert self.queries is not None, "begin() must run first"
        records = np.asarray(payload, dtype=np.float64)
        features = records[:, : self._num_dims]
        labels = records[:, self._num_dims]
        n = features.shape[0]

        d2 = pairwise_sq_dists(self.queries, features)  # (q, n)
        obj.absorb(d2, np.broadcast_to(labels, d2.shape))

        ops.charge(*distance_ops(float(n), self.num_queries, self._num_dims))
        # Selection and candidate-set maintenance are branch-heavy: kNN has
        # the branchiest op mix of the five applications, which is what
        # gives it the smallest cross-cluster compute scaling factor.
        qn = float(self.num_queries) * n
        ops.charge(
            branch=2.0 * qn + self.num_queries * 4.0 * self.k,
            mem=qn + self.num_queries * 2.0 * self.k,
        )

    def object_nbytes(self, obj: KNNCandidates) -> float:
        return obj.nbytes

    def combine(
        self, objs: Sequence[KNNCandidates], ops: OpCounter
    ) -> KNNCandidates:
        merged = KNNCandidates(
            dists=objs[0].dists.copy(), labels=objs[0].labels.copy()
        )
        merged.merge(*objs[1:])
        per_merge = float(self.num_queries) * self.k
        for _ in objs[1:]:
            ops.charge(branch=4.0 * per_merge, mem=2.0 * per_merge)
        return merged

    def merge_local(
        self, objs: Sequence[KNNCandidates], ops: OpCounter
    ) -> KNNCandidates:
        # Candidate sets form a semilattice, so the shared-memory merge is
        # the same min-k absorb the global reduction uses.
        return self.combine(objs, ops)

    def update(self, combined: KNNCandidates, ops: OpCounter) -> bool:
        self._final = combined
        # Majority vote over each query's k labels.
        ops.charge(branch=float(self.num_queries) * self.k)
        return False

    def result(self) -> Dict[str, Any]:
        assert self._final is not None, "run has not completed"
        return {
            "neighbors_dists": np.sqrt(self._final.dists),
            "neighbors_labels": self._final.labels.astype(np.int64),
            "predictions": _majority(self._final.labels),
        }


def _majority(labels: np.ndarray) -> np.ndarray:
    """Each row's most frequent label >= 0, the smallest on a count tie,
    -1 for a row with none (``np.unique`` + ``argmax`` per row)."""
    valid = labels >= 0
    votes = ((labels[:, :, None] == labels[:, None, :]) & valid[:, None, :]).sum(
        axis=2
    )
    top = votes == votes.max(axis=1, keepdims=True)
    winner = np.where(top, labels, np.inf).min(axis=1)
    return np.where(valid.any(axis=1), winner, -1.0).astype(np.int64)
