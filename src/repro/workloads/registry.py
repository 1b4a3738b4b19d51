"""Application + dataset builders for the paper's five workloads.

The paper's datasets are multi-GB; this reproduction runs a uniformly
scaled-down replica (see DESIGN.md), with **1 model megabyte standing in
for 1 paper gigabyte** (``MODEL_BYTES_PER_GB``).  Labels such as
``"1.4 GB"`` below refer to the paper's nominal sizes; the corresponding
model datasets keep the same *ratios*, which is all the prediction
framework is sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.apps import (
    AprioriMining,
    DefectDetection,
    EMClustering,
    KMeansClustering,
    KNNSearch,
    NeuralNetTraining,
    VortexDetection,
)
from repro.datagen.cfd import make_field_dataset
from repro.datagen.lattice import make_lattice_dataset
from repro.datagen.points import make_point_dataset, make_training_dataset
from repro.datagen.transactions import make_transaction_dataset
from repro.middleware.api import GeneralizedReduction
from repro.middleware.dataset import Dataset
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "MODEL_BYTES_PER_GB",
    "WORKLOADS",
    "WorkloadSpec",
    "make_app",
    "make_dataset",
    "nominal_to_model_bytes",
]

#: 1 paper gigabyte is represented by 1e6 model bytes.
MODEL_BYTES_PER_GB = 1.0e6

#: Target model bytes per chunk ("4 MB" nominal chunks).  Fixed across
#: dataset sizes so per-byte chunk overheads (seeks, message latencies,
#: dispatch) are scale-invariant, as they are for a fixed ADR chunk size.
CHUNK_MODEL_BYTES = 4096.0

#: Never fewer chunks than this, so 16 compute nodes stay busy.
MIN_CHUNKS = 16


def nominal_to_model_bytes(gigabytes: float) -> float:
    """Convert a paper-nominal size in GB to model bytes."""
    if gigabytes <= 0:
        raise ConfigurationError("dataset size must be positive")
    return gigabytes * MODEL_BYTES_PER_GB


def _num_chunks(model_bytes: float) -> int:
    """Chunk count: ~4 MB nominal chunks, rounded up to a multiple of 16.

    The repository stripes chunks evenly over data nodes, and FREERIDE-G
    deals them evenly over compute nodes; keeping the count a multiple of
    16 means every power-of-two configuration in the paper's grid divides
    evenly — matching the evenly laid-out ADR datasets of the testbed.
    """
    raw = max(MIN_CHUNKS, int(round(model_bytes / CHUNK_MODEL_BYTES)))
    return ((raw + 15) // 16) * 16


def _points_builder(
    num_centers: int, bytes_per_record: float = 16.0, labeled: bool = False
) -> Callable[[str, float, int], Dataset]:
    def build(name: str, model_bytes: float, seed: int) -> Dataset:
        chunks = _num_chunks(model_bytes)
        # A whole number of records per chunk keeps chunk sizes uniform.
        per_chunk = max(round(model_bytes / (bytes_per_record * chunks)), 1)
        num_points = per_chunk * chunks
        model_bytes = num_points * bytes_per_record
        if labeled:
            return make_training_dataset(
                name,
                num_points=num_points,
                num_dims=4,
                num_classes=num_centers,
                num_chunks=chunks,
                nbytes=model_bytes,
                seed=seed,
            )
        return make_point_dataset(
            name,
            num_points=num_points,
            num_dims=4,
            num_centers=num_centers,
            num_chunks=chunks,
            nbytes=model_bytes,
            seed=seed,
        )

    return build


def _field_builder() -> Callable[[str, float, int], Dataset]:
    def build(name: str, model_bytes: float, seed: int) -> Dataset:
        nx = 300
        chunks = _num_chunks(model_bytes)
        # A whole number of rows per chunk keeps row blocks uniform.
        rows_per_chunk = max(round(model_bytes / (8.0 * nx * chunks)), 1)
        ny = rows_per_chunk * chunks
        return make_field_dataset(
            name,
            ny=ny,
            nx=nx,
            num_chunks=chunks,
            nbytes=ny * nx * 8.0,
            seed=seed,
        )

    return build


def _transactions_builder(
    num_items: int = 48,
) -> Callable[[str, float, int], Dataset]:
    bytes_per_record = float(num_items)  # one model byte per item flag

    def build(name: str, model_bytes: float, seed: int) -> Dataset:
        chunks = _num_chunks(model_bytes)
        per_chunk = max(round(model_bytes / (bytes_per_record * chunks)), 1)
        num_transactions = per_chunk * chunks
        return make_transaction_dataset(
            name,
            num_transactions=num_transactions,
            num_items=num_items,
            num_chunks=chunks,
            nbytes=num_transactions * bytes_per_record,
            seed=seed,
        )

    return build


def _lattice_builder() -> Callable[[str, float, int], Dataset]:
    def build(name: str, model_bytes: float, seed: int) -> Dataset:
        nx = ny = 12
        chunks = _num_chunks(model_bytes)
        # A whole number of layers per chunk keeps z-slabs uniform.
        layers_per_chunk = max(
            round(model_bytes / (16.0 * nx * ny * chunks)), 1
        )
        nz = layers_per_chunk * chunks
        return make_lattice_dataset(
            name,
            nz=nz,
            ny=ny,
            nx=nx,
            num_chunks=chunks,
            nbytes=nz * ny * nx * 16.0,
            seed=seed,
        )

    return build


@dataclass(frozen=True)
class WorkloadSpec:
    """One paper workload: the application plus its dataset family.

    ``paper_object_class`` / ``paper_global_class`` record the model
    classes the paper states it used for the application (Section 5);
    ``natural_object_class`` / ``natural_global_class`` are the classes
    this reimplementation's algorithms actually exhibit (they differ only
    for EM — see DESIGN.md's model-fidelity notes).  Experiments use the
    *natural* classes, which is also what the paper's auto-detection
    procedure would select.
    """

    name: str
    app_factory: Callable[[], GeneralizedReduction]
    dataset_builder: Callable[[str, float, int], Dataset]
    dataset_sizes_gb: Dict[str, float]
    default_size: str
    paper_object_class: str
    paper_global_class: str
    natural_object_class: str
    natural_global_class: str
    seed: int = 0
    #: True for the five workloads of the paper's evaluation (Figures
    #: 2-13); False for the Section 2.2 extension workloads.
    in_paper_evaluation: bool = True

    def make_dataset(self, size_label: str | None = None) -> Dataset:
        """Build the dataset for one of the paper's named sizes."""
        label = size_label or self.default_size
        return self.dataset_builder(
            f"{self.name}-{label.replace(' ', '')}",
            self.model_bytes(label),
            self.seed,
        )

    def make_app(self) -> GeneralizedReduction:
        """A fresh application instance with the evaluation parameters."""
        return self.app_factory()

    def model_bytes(self, size_label: str | None = None) -> float:
        """Model bytes of one of the named sizes."""
        label = size_label or self.default_size
        if label not in self.dataset_sizes_gb:
            raise ConfigurationError(
                f"workload '{self.name}' has no dataset size '{label}'; "
                f"known sizes: {sorted(self.dataset_sizes_gb)}"
            )
        return nominal_to_model_bytes(self.dataset_sizes_gb[label])


WORKLOADS: Dict[str, WorkloadSpec] = {
    "kmeans": WorkloadSpec(
        name="kmeans",
        app_factory=KMeansClustering,
        dataset_builder=_points_builder(num_centers=10),
        dataset_sizes_gb={"1.4 GB": 1.4, "350 MB": 0.35, "700 MB": 0.7},
        default_size="1.4 GB",
        paper_object_class="constant",
        paper_global_class="linear-constant",
        natural_object_class="constant",
        natural_global_class="linear-constant",
        seed=101,
    ),
    "em": WorkloadSpec(
        name="em",
        app_factory=EMClustering,
        dataset_builder=_points_builder(num_centers=6),
        dataset_sizes_gb={"1.4 GB": 1.4, "350 MB": 0.35, "700 MB": 0.7},
        default_size="1.4 GB",
        paper_object_class="linear",
        paper_global_class="constant-linear",
        natural_object_class="constant",
        natural_global_class="linear-constant",
        seed=202,
    ),
    "knn": WorkloadSpec(
        name="knn",
        app_factory=KNNSearch,
        dataset_builder=_points_builder(
            num_centers=8, bytes_per_record=20.0, labeled=True
        ),
        dataset_sizes_gb={"1.4 GB": 1.4, "350 MB": 0.35, "700 MB": 0.7},
        default_size="1.4 GB",
        paper_object_class="constant",
        paper_global_class="linear-constant",
        natural_object_class="constant",
        natural_global_class="linear-constant",
        seed=303,
    ),
    "vortex": WorkloadSpec(
        name="vortex",
        app_factory=VortexDetection,
        dataset_builder=_field_builder(),
        dataset_sizes_gb={"710 MB": 0.71, "1.85 GB": 1.85},
        default_size="710 MB",
        paper_object_class="linear",
        paper_global_class="constant-linear",
        natural_object_class="linear",
        natural_global_class="constant-linear",
        seed=404,
    ),
    "defect": WorkloadSpec(
        name="defect",
        app_factory=DefectDetection,
        dataset_builder=_lattice_builder(),
        dataset_sizes_gb={"130 MB": 0.13, "1.8 GB": 1.8},
        default_size="130 MB",
        paper_object_class="linear",
        paper_global_class="constant-linear",
        natural_object_class="linear",
        natural_global_class="constant-linear",
        seed=505,
    ),
    # ------------------------------------------------------------------
    # Extension workloads: named by the paper's Section 2.2 as canonical
    # generalized reductions, but not part of its evaluation figures.
    # ------------------------------------------------------------------
    "apriori": WorkloadSpec(
        name="apriori",
        app_factory=AprioriMining,
        dataset_builder=_transactions_builder(),
        dataset_sizes_gb={"1 GB": 1.0, "250 MB": 0.25},
        default_size="1 GB",
        paper_object_class="constant",
        paper_global_class="linear-constant",
        natural_object_class="constant",
        natural_global_class="linear-constant",
        seed=606,
        in_paper_evaluation=False,
    ),
    "neuralnet": WorkloadSpec(
        name="neuralnet",
        app_factory=NeuralNetTraining,
        dataset_builder=_points_builder(
            num_centers=8, bytes_per_record=20.0, labeled=True
        ),
        dataset_sizes_gb={"1 GB": 1.0, "250 MB": 0.25},
        default_size="1 GB",
        paper_object_class="constant",
        paper_global_class="linear-constant",
        natural_object_class="constant",
        natural_global_class="linear-constant",
        seed=707,
        in_paper_evaluation=False,
    ),
}


def make_app(name: str) -> GeneralizedReduction:
    """A fresh application instance for a workload name."""
    return _workload(name).make_app()


def make_dataset(name: str, size_label: str | None = None) -> Dataset:
    """The dataset for a workload at one of its named sizes."""
    return _workload(name).make_dataset(size_label)


def _workload(name: str) -> WorkloadSpec:
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown workload '{name}'; known: {sorted(WORKLOADS)}"
        )
    return spec
