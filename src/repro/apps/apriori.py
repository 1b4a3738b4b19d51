"""Apriori association mining as a FREERIDE-G generalized reduction.

Section 2.2 of the paper lists "apriori association mining [1]" first
among the popular algorithms whose processing structure is a generalized
reduction.  The classic level-wise algorithm maps onto the middleware as
follows:

- Pass ``k`` counts the support of the current candidate ``k``-itemsets:
  every node scans its local transactions and accumulates one counter per
  candidate — an associative, commutative update into a replicated,
  parameter-sized reduction object (**constant object size** class).
- The global reduction merges the per-node counter vectors, prunes the
  candidates below ``min_support`` and generates the ``k+1`` candidates
  (the join + prune steps); the surviving candidate set is broadcast back
  for the next pass.  Merge work is proportional to the node count —
  **linear-constant** global reduction.

The algorithm terminates when no candidates survive or ``max_k`` is
reached.  Because candidate generation depends only on global supports,
the frequent-itemset output is invariant to the data partitioning, which
the tests assert.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["AprioriMining"]

Itemset = Tuple[int, ...]


class AprioriMining(GeneralizedReduction):
    """Level-wise frequent-itemset mining.

    Parameters
    ----------
    min_support:
        Fraction of transactions an itemset must appear in.
    max_k:
        Largest itemset size explored (bounds the pass count).
    """

    name = "apriori"
    broadcasts_result = True  # the surviving candidate set
    multi_pass_hint = True

    def __init__(self, min_support: float = 0.2, max_k: int = 4) -> None:
        if not 0.0 < min_support <= 1.0:
            raise ConfigurationError("min_support must be in (0, 1]")
        if max_k < 1:
            raise ConfigurationError("max_k must be >= 1")
        self.min_support = min_support
        self.max_k = max_k
        self._num_items = 0
        self._level = 1
        self._set_candidates([])
        self._frequent: Dict[Itemset, float] = {}
        self._total_transactions = 0.0

    # ------------------------------------------------------------------
    # GeneralizedReduction interface
    # ------------------------------------------------------------------

    def begin(self, meta: Dict[str, Any]) -> None:
        self._num_items = int(meta["num_items"])
        self._level = 1
        self._set_candidates([(i,) for i in range(self._num_items)])
        self._frequent = {}
        self._total_transactions = 0.0

    def make_local_object(self) -> ArrayReductionObject:
        return ArrayReductionObject.zeros(len(self._candidates))

    def process_chunk(
        self, obj: ArrayReductionObject, payload: np.ndarray, ops: OpCounter
    ) -> None:
        transactions = np.asarray(payload) > 0.5
        n = transactions.shape[0]
        # One gather tests every candidate: (n, m, level) -> (n, m) -> (m,).
        counts = transactions[:, self._index].all(axis=2).sum(axis=0)
        obj.accumulate(counts, count=float(n))

        level = self._level
        work = float(n) * len(self._candidates) * level
        # Subset testing is a scan: heavy on memory traffic and branches.
        ops.charge(mem=2.0 * work, branch=1.5 * work, flop=0.1 * work)

    def object_nbytes(self, obj: ArrayReductionObject) -> float:
        return obj.nbytes

    combine = GeneralizedReduction.merge_local

    def update(self, combined: ArrayReductionObject, ops: OpCounter) -> bool:
        self._total_transactions = combined.count
        threshold = self.min_support * combined.count
        survivors: List[Itemset] = []
        for itemset, count in zip(self._candidates, combined.values):
            if count >= threshold:
                survivors.append(itemset)
                self._frequent[itemset] = float(count) / combined.count

        next_candidates = self._generate_candidates(survivors)
        # Join + prune work: pairs of survivors plus subset checks.
        ncand = float(len(self._candidates))
        nsurv = float(len(survivors))
        ops.charge(
            branch=4.0 * ncand + nsurv * nsurv * self._level,
            mem=2.0 * ncand + nsurv * nsurv,
        )

        self._level += 1
        self._set_candidates(next_candidates)
        return bool(next_candidates) and self._level <= self.max_k

    def result(self) -> Dict[str, Any]:
        by_size: Dict[int, List[Itemset]] = {}
        for itemset in self._frequent:
            by_size.setdefault(len(itemset), []).append(itemset)
        return {
            "frequent_itemsets": dict(self._frequent),
            "by_size": {k: sorted(v) for k, v in by_size.items()},
            "levels_explored": self._level - 1,
            "num_transactions": self._total_transactions,
        }

    def broadcast_nbytes(self, combined: ArrayReductionObject) -> float:
        # The next candidate set: one (k+1)-tuple of 4-byte ids each.
        return 8.0 + 4.0 * (self._level) * max(len(self._candidates), 1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _set_candidates(self, candidates: List[Itemset]) -> None:
        """Keep the level's candidates as tuples and as ``(m, level)`` index rows."""
        self._candidates = candidates
        self._index = np.array(candidates, dtype=np.intp).reshape(-1, self._level)

    def _generate_candidates(self, survivors: List[Itemset]) -> List[Itemset]:
        """Classic apriori-gen: join same-prefix survivors, prune subsets."""
        if not survivors:
            return []
        survivor_set = set(survivors)
        k = len(survivors[0])
        candidates: List[Itemset] = []
        for a, b in combinations(sorted(survivors), 2):
            if a[:-1] != b[:-1]:
                continue
            joined = a + (b[-1],)
            # Prune: every k-subset must be frequent.
            if all(
                subset in survivor_set
                for subset in combinations(joined, k)
            ):
                candidates.append(joined)
        return candidates
