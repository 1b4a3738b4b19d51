"""Molecular defect detection and categorization as a FREERIDE-G reduction.

Section 4.5 of the paper: the goal is to uncover defect nucleation in Si
lattices.  The *detection* phase marks individual atoms as defective and
clusters them into defect structures on each node's chunk of the lattice;
defects spanning multiple nodes are joined in the global combination.  The
*categorization* phase computes a candidate class for each defect by exact
shape matching against a defect catalog; non-matching defects receive new
class assignments, local catalogs are merged, and the updated catalog is
re-broadcast to compute nodes.

In this reimplementation the join + categorization + catalog merge run in
the serialized global-reduction step at the master (the catalog broadcast
is charged as reduction-object communication).  This keeps the paper's
model classes intact — the fragment list is **linear** in dataset size and
the global work is **constant-linear** — while simplifying the two-stage
load-balanced categorization the original C++ system used; see DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.apps.joining import join_fragments, label_components
from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import FeatureListReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["DefectDetection"]

#: Serialized bytes per defect fragment (cell list is small and bounded).
FRAGMENT_NBYTES = 96.0

#: Serialized bytes per catalog entry in the re-broadcast.
CATALOG_ENTRY_NBYTES = 48.0

Signature = Tuple[Tuple[int, int, int, int], ...]


def _signature(cells: Sequence[Tuple[int, int, int, int]]) -> Signature:
    """Translation-invariant canonical form of a defect's cell set."""
    z0 = min(c[0] for c in cells)
    y0 = min(c[1] for c in cells)
    x0 = min(c[2] for c in cells)
    return tuple(sorted((z - z0, y - y0, x - x0, s) for z, y, x, s in cells))


class DefectDetection(GeneralizedReduction):
    """Detect, join and categorize defect structures in a Si lattice.

    Parameters
    ----------
    threshold:
        Displacement magnitude above which a site is marked defective.
        When the dataset metadata carries ``detection_threshold`` it takes
        precedence (the generator knows its thermal noise level).
    seed_catalog:
        Template signatures known a priori.  Defaults to the point vacancy
        and the single dopant; every other shape is discovered at run time
        through catalog updates.
    """

    name = "defect"
    broadcasts_result = True  # the updated defect catalog is re-broadcast
    multi_pass_hint = False

    def __init__(
        self,
        threshold: float = 0.3,
        seed_catalog: Sequence[Signature] | None = None,
    ) -> None:
        if threshold <= 0:
            raise ConfigurationError("detection threshold must be positive")
        self.threshold = threshold
        if seed_catalog is None:
            seed_catalog = [
                _signature([(0, 0, 0, 0)]),  # point vacancy
                _signature([(0, 0, 0, 1)]),  # single dopant
            ]
        self._seed_catalog = list(seed_catalog)
        self.catalog: Dict[Signature, int] = {}
        self._defects: List[Dict[str, Any]] | None = None

    def begin(self, meta: Dict[str, Any]) -> None:
        if "detection_threshold" in meta:
            self.threshold = float(meta["detection_threshold"])
        self.catalog = {sig: i for i, sig in enumerate(self._seed_catalog)}
        self._defects = None

    def make_local_object(self) -> FeatureListReductionObject:
        return FeatureListReductionObject(bytes_per_feature=FRAGMENT_NBYTES)

    def process_chunk(
        self,
        obj: FeatureListReductionObject,
        payload: Dict[str, Any],
        ops: OpCounter,
    ) -> None:
        disp = np.asarray(payload["displacement"], dtype=np.float64)
        species = np.asarray(payload["species"])
        halo_lo = int(payload["halo_lo"])
        halo_hi = int(payload["halo_hi"])
        z0 = int(payload["z0"])
        block = int(payload["block"])

        layers = disp.shape[0] - halo_lo - halo_hi
        interior = disp[halo_lo : halo_lo + layers]
        interior_species = species[halo_lo : halo_lo + layers]

        mask = interior > self.threshold
        labels, num = label_components(mask)  # 6-connectivity in 3-D

        for comp in range(1, num + 1):
            zs, ys, xs = np.nonzero(labels == comp)
            cells = [
                (int(z) + z0, int(y), int(x), int(interior_species[z, y, x]))
                for z, y, x in zip(zs, ys, xs)
            ]
            obj.add(
                {
                    "block": block,
                    "cells": cells,
                    "touches_lo": bool(halo_lo and zs.min() == 0),
                    "touches_hi": bool(halo_hi and zs.max() == layers - 1),
                }
            )

        sites = float(interior.size)
        marked = float(mask.sum())
        # Per-atom detection scans a neighbour shell and compares bond
        # geometry — branch/memory heavy with little arithmetic: the most
        # branch-weighted mix of the five applications (smallest
        # cross-cluster compute factor after kNN).
        ops.charge(
            flop=100.0 * sites,
            mem=160.0 * sites,
            branch=320.0 * sites + 40.0 * marked,
        )

    def object_nbytes(self, obj: FeatureListReductionObject) -> float:
        return obj.nbytes

    def combine(
        self, objs: Sequence[FeatureListReductionObject], ops: OpCounter
    ) -> Dict[str, Any]:
        fragments: List[Dict[str, Any]] = []
        for obj in objs:
            fragments.extend(obj.features)

        def adjacent(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
            # Exact 6-connectivity across the slab cut: some cell of ``a``
            # sits directly below some cell of ``b``.
            b_cells: FrozenSet[Tuple[int, int, int]] = frozenset(
                (z, y, x) for z, y, x, _ in b["cells"]
            )
            return any((z + 1, y, x) in b_cells for z, y, x, _ in a["cells"])

        groups = join_fragments(fragments, adjacent)

        defects: List[Dict[str, Any]] = []
        discovered = 0
        for group in groups:
            cells = [cell for frag in group for cell in frag["cells"]]
            signature = _signature(cells)
            class_id = self.catalog.get(signature)
            if class_id is None:
                # Exact shape matching failed: catalog update (Section 4.5).
                class_id = len(self.catalog)
                self.catalog[signature] = class_id
                discovered += 1
            anchor = min((z, y, x) for z, y, x, _ in cells)
            defects.append(
                {
                    "anchor": anchor,
                    "num_sites": len(cells),
                    "class_id": class_id,
                    "signature": signature,
                    "num_fragments": len(group),
                }
            )
        defects.sort(key=lambda d: d["anchor"])

        # Exact shape matching aligns each defect's cell set against every
        # candidate class under the lattice's 24 rotations — the dominant,
        # dataset-size-proportional cost of the categorization phase.
        total_cells = float(sum(len(f["cells"]) for f in fragments))
        ncat = float(len(self.catalog))
        match_work = 24.0 * total_cells * max(ncat, 1.0)
        ops.charge(
            branch=8.0 * match_work + 20.0 * total_cells,
            mem=3.0 * match_work + 10.0 * total_cells,
            flop=1.0 * match_work,
        )
        return {"defects": defects, "discovered": discovered}

    def broadcast_nbytes(self, combined: Dict[str, Any]) -> float:
        return 8.0 + CATALOG_ENTRY_NBYTES * len(self.catalog)

    def update(self, combined: Dict[str, Any], ops: OpCounter) -> bool:
        self._defects = combined["defects"]
        ops.charge(branch=float(len(self._defects)))
        return False

    def result(self) -> Dict[str, Any]:
        assert self._defects is not None, "run has not completed"
        return {
            "defects": list(self._defects),
            "count": len(self._defects),
            "catalog_size": len(self.catalog),
        }
