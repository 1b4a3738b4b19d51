"""k-nearest-neighbour search as a FREERIDE-G generalized reduction.

Section 4.3 of the paper: training samples are distributed among nodes;
each node scans the samples it owns to maintain the k nearest neighbours of
every query (Euclidean distance); a global reduction computes the overall
k nearest from the per-node candidate sets.

The per-query candidate set is a *min-k semilattice*: merging candidate
sets is associative, commutative and idempotent, so chunk placement cannot
change the answer.  The reduction object holds ``q x k`` (distance, label)
pairs — **constant object size** — and merging ``c`` such objects makes the
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
        dists = np.concatenate([self.dists, new_dists], axis=1)
        labels = np.concatenate([self.labels, new_labels], axis=1)
        k = self.dists.shape[1]
        order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        rows = np.arange(dists.shape[0])[:, None]
        self.dists = dists[rows, order]
        self.labels = labels[rows, order]

    def merge(self, other: "KNNCandidates") -> None:
        """Fold another candidate set into this one."""
        self.absorb(other.dists, other.labels)


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
        take = min(self.k, n)
        part = np.argpartition(d2, take - 1, axis=1)[:, :take]
        rows = np.arange(self.num_queries)[:, None]
        obj.absorb(d2[rows, part], np.broadcast_to(labels, d2.shape)[rows, part])

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
        per_merge = float(self.num_queries) * self.k
        for other in objs[1:]:
            merged.merge(other)
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
        labels = self._final.labels
        votes = np.empty(self.num_queries, dtype=np.int64)
        for q in range(self.num_queries):
            vals, counts = np.unique(
                labels[q][labels[q] >= 0], return_counts=True
            )
            votes[q] = int(vals[np.argmax(counts)]) if len(vals) else -1
        return {
            "neighbors_dists": np.sqrt(self._final.dists),
            "neighbors_labels": self._final.labels.astype(np.int64),
            "predictions": votes,
        }
