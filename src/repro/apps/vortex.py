"""Vortex detection in CFD velocity fields as a FREERIDE-G reduction.

Section 4.4 of the paper (the feature-mining algorithm of Machiraju et
al.): individual grid points are *detected* as vortical, *classified* (by
swirl sense here), and *aggregated* into volumetric regions; partitions
overlap so the detection phase needs no communication; a global combination
"joins parts of a vortex belonging to different nodes", after which
de-noising and sorting run on the joined set.

Model classes: the reduction object is the node's vortex-fragment list,
which scales with the data the node holds — the paper's **linear reduction
object size** class — and the join/denoise/sort global work scales with the
total feature count, i.e. with dataset size and not node count — the
**constant-linear global reduction time** class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.apps.joining import join_fragments, label_components
from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import FeatureListReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["VortexDetection"]

#: Serialized bytes per vortex fragment (bbox, stats, boundary summary).
FRAGMENT_NBYTES = 64.0


class VortexDetection(GeneralizedReduction):
    """Detect, classify and aggregate vortices in a 2-D velocity field.

    Parameters
    ----------
    vort_threshold:
        |vorticity| above which a grid point is detected as vortical.
    min_area:
        De-noising floor: joined regions smaller than this are dropped.
    """

    name = "vortex"
    broadcasts_result = False
    multi_pass_hint = False

    def __init__(self, vort_threshold: float = 0.3, min_area: int = 4) -> None:
        if vort_threshold <= 0:
            raise ConfigurationError("vorticity threshold must be positive")
        if min_area < 1:
            raise ConfigurationError("min_area must be >= 1")
        self.vort_threshold = vort_threshold
        self.min_area = min_area
        self._vortices: List[Dict[str, Any]] | None = None

    def begin(self, meta: Dict[str, Any]) -> None:
        self._vortices = None

    def make_local_object(self) -> FeatureListReductionObject:
        return FeatureListReductionObject(bytes_per_feature=FRAGMENT_NBYTES)

    def process_chunk(
        self,
        obj: FeatureListReductionObject,
        payload: Dict[str, Any],
        ops: OpCounter,
    ) -> None:
        u = np.asarray(payload["u"], dtype=np.float64)
        v = np.asarray(payload["v"], dtype=np.float64)
        halo_lo = int(payload["halo_lo"])
        halo_hi = int(payload["halo_hi"])
        y0 = int(payload["y0"])
        block = int(payload["block"])

        # Vorticity via central differences; the halo rows make the
        # interior rows exact, so detection needs no communication.
        dvdx = np.gradient(v, axis=1)
        dudy = np.gradient(u, axis=0)
        vorticity = dvdx - dudy
        rows = u.shape[0] - halo_lo - halo_hi
        interior = vorticity[halo_lo : halo_lo + rows]

        mask = np.abs(interior) > self.vort_threshold
        labels, num = label_components(mask)

        for comp in range(1, num + 1):
            ys, xs = np.nonzero(labels == comp)
            strength = float(interior[ys, xs].sum())
            obj.add(
                {
                    "block": block,
                    "area": int(ys.size),
                    "strength": strength,
                    "sign": 1.0 if strength >= 0 else -1.0,
                    "ymin": int(ys.min()) + y0,
                    "ymax": int(ys.max()) + y0,
                    "xmin": int(xs.min()),
                    "xmax": int(xs.max()),
                    "touches_lo": bool(halo_lo and ys.min() == 0),
                    "touches_hi": bool(halo_hi and ys.max() == rows - 1),
                    "cols_lo": frozenset(xs[ys == 0].tolist()),
                    "cols_hi": frozenset(xs[ys == rows - 1].tolist()),
                }
            )

        cells = float(interior.size)
        detected = float(mask.sum())
        # Per-point detection evaluates the velocity-gradient tensor and
        # its swirl criterion (eigenvalue analysis) — a few hundred FLOPs
        # per cell in EVITA-style feature mining; labelling and scanning
        # are branchy.  Vortex detection has the most FLOP-weighted mix of
        # the five applications (largest cross-cluster compute factor).
        ops.charge(
            flop=600.0 * cells + 40.0 * detected,
            mem=150.0 * cells,
            branch=80.0 * cells + 30.0 * detected,
        )

    def object_nbytes(self, obj: FeatureListReductionObject) -> float:
        return obj.nbytes

    def combine(
        self, objs: Sequence[FeatureListReductionObject], ops: OpCounter
    ) -> List[Dict[str, Any]]:
        fragments: List[Dict[str, Any]] = []
        for obj in objs:
            fragments.extend(obj.features)

        def adjacent(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
            # Two fragments continue one region iff they share a column
            # along the cut and swirl the same way.
            return a["sign"] == b["sign"] and bool(a["cols_hi"] & b["cols_lo"])

        groups = join_fragments(fragments, adjacent)
        joined: List[Dict[str, Any]] = []
        for group in groups:
            area = sum(f["area"] for f in group)
            strength = sum(f["strength"] for f in group)
            joined.append(
                {
                    "area": area,
                    "strength": strength,
                    "sign": 1.0 if strength >= 0 else -1.0,
                    "ymin": min(f["ymin"] for f in group),
                    "ymax": max(f["ymax"] for f in group),
                    "xmin": min(f["xmin"] for f in group),
                    "xmax": max(f["xmax"] for f in group),
                    "num_fragments": len(group),
                }
            )

        # De-noising and sorting of the joined regions (Section 4.4).
        denoised = [v for v in joined if v["area"] >= self.min_area]
        denoised.sort(key=lambda v: abs(v["strength"]), reverse=True)

        # Joining, de-noising and sorting walk the per-region point sets
        # (total detected cells scale with the field volume — the source
        # of the constant-linear global-reduction class).
        total_cells = float(sum(f["area"] for f in fragments))
        nfrag = float(len(fragments))
        njoin = float(len(joined))
        ops.charge(
            flop=250.0 * total_cells + 6.0 * nfrag,
            mem=120.0 * total_cells + 8.0 * nfrag,
            branch=180.0 * total_cells
            + 12.0 * nfrag
            + 6.0 * njoin * max(np.log2(njoin + 1.0), 1.0),
        )
        return denoised

    def update(self, combined: List[Dict[str, Any]], ops: OpCounter) -> bool:
        self._vortices = combined
        ops.charge(branch=float(len(combined)))
        return False

    def result(self) -> Dict[str, Any]:
        assert self._vortices is not None, "run has not completed"
        return {
            "vortices": list(self._vortices),
            "count": len(self._vortices),
        }
