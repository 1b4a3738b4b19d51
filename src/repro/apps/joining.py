"""Cross-partition feature joining shared by the scientific applications.

Both vortex detection and molecular defect detection partition their grid
spatially, extract features locally, and then — in the serialized global
combination — join feature *fragments* that straddle partition boundaries
(Sections 4.4-4.5 of the paper).  The joining machinery (a union-find over
fragments plus boundary-adjacency tests) is shared here, and so is the
local connected-component labelling that produces the fragments, built
on the same union-find.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["UnionFind", "join_fragments", "label_components"]


def label_components(mask: Any) -> Tuple[Any, int]:
    """Each face-connected component of a grid's set cells numbered
    ``1..count`` in scan order of its first cell, and the count: the
    ``(labels, count)`` of ``scipy.ndimage.label(mask)``, ``int32``
    labels included.
    """
    cells = np.flatnonzero(mask).tolist()
    forest = UnionFind(cells)
    stride = 1
    for size in reversed(mask.shape):
        for cell in cells:
            if (cell // stride) % size != size - 1 and cell + stride in forest:
                forest.union(cell, cell + stride)
        stride *= size
    labels = np.zeros(mask.size, dtype=np.int32)
    groups = forest.groups()
    for number, group in enumerate(groups, start=1):
        labels[group] = number
    return labels.reshape(mask.shape), len(groups)


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: Hashable) -> None:
        """Register an element as its own singleton set (idempotent)."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def find(self, element: Hashable) -> Hashable:
        """Representative of the element's set."""
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def groups(self) -> List[List[Hashable]]:
        """All sets, each as a list; deterministic insertion order."""
        by_root: Dict[Hashable, List[Hashable]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), []).append(element)
        return list(by_root.values())

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, element: object) -> bool:
        return element in self._parent


def join_fragments(
    fragments: Sequence[Dict[str, Any]],
    adjacent: Callable[[Dict[str, Any], Dict[str, Any]], bool],
) -> List[List[Dict[str, Any]]]:
    """Group fragments into features using a boundary-adjacency predicate.

    ``adjacent(a, b)`` is consulted only for fragments in *consecutive*
    blocks where ``a`` touches its lower boundary and ``b`` touches its
    upper boundary — the only geometry in which a feature can straddle the
    cut.  Fragments spanning a whole block chain through transitivity.
    """
    uf = UnionFind(range(len(fragments)))
    by_block: Dict[int, List[int]] = {}
    for idx, frag in enumerate(fragments):
        by_block.setdefault(int(frag["block"]), []).append(idx)

    for block, members in sorted(by_block.items()):
        upper = by_block.get(block + 1)
        if not upper:
            continue
        for i in members:
            if not fragments[i]["touches_hi"]:
                continue
            for j in upper:
                if not fragments[j]["touches_lo"]:
                    continue
                if adjacent(fragments[i], fragments[j]):
                    uf.union(i, j)

    return [
        [fragments[i] for i in sorted(group)] for group in uf.groups()
    ]
