"""Synthetic dataset generators.

The paper's evaluation used real datasets we cannot obtain (multi-GB point
data for the data-mining codes, CFD simulation output for vortex detection,
molecular-dynamics Si lattices for defect detection).  These generators
produce laptop-scale synthetic datasets with the same *statistical
structure* — which is all the prediction framework is sensitive to:

- :mod:`repro.datagen.points`  — Gaussian-mixture point clouds (k-means,
  EM) and labelled training sets (kNN).
- :mod:`repro.datagen.cfd`     — 2-D velocity fields with embedded
  Lamb-Oseen vortices over a background shear flow (vortex detection);
  vortex count scales with field area, giving the *linear* reduction-object
  size class.
- :mod:`repro.datagen.lattice` — silicon-lattice site grids with seeded
  point/cluster defects (molecular defect detection); defect count scales
  with lattice volume.

Every generator is deterministic given a seed and returns ground truth for
correctness tests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.datagen.cfd": (
            "FieldDataset",
            "generate_velocity_field",
            "make_field_dataset",
        ),
        "repro.datagen.lattice": (
            "DEFECT_TEMPLATES",
            "LatticeDataset",
            "generate_lattice",
            "make_lattice_dataset",
        ),
        "repro.datagen.points": (
            "make_blobs",
            "make_labeled_points",
            "make_point_dataset",
            "make_training_dataset",
        ),
        "repro.datagen.transactions": (
            "generate_transactions",
            "make_transaction_dataset",
        ),
    },
)
