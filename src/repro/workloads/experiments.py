"""The paper's evaluation (Figures 2-13) as data plus one driver.

Every experiment follows the paper's protocol exactly:

1. Execute the application once on the **base profile** configuration and
   collect the :class:`~repro.core.profile.Profile`.
2. For every target configuration in the grid, execute the application for
   real (the "actual" time) and predict its execution time from the profile
   alone.
3. Report ``E = |T_exact - T_predicted| / T_exact`` per configuration.

The protocol is written once, in :func:`run_grid_experiment`.  A figure is
an :class:`ExperimentSpec` record — what differs between the profile side
and the target side, which models predict, optionally a fault scenario —
and :data:`EXPERIMENTS` is the table of those records.  The driver returns
:class:`ExperimentResult` objects consumed by the benchmark harness, the
report formatter and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import (
    ComponentScalingFactors,
    CrossClusterPredictor,
    DegradedModePredictor,
    GlobalReductionModel,
    ModelClasses,
    NoCommunicationModel,
    PredictionModel,
    PredictionTarget,
    Profile,
    ReductionCommunicationModel,
    measure_scaling_factors,
    relative_error,
)
from repro.faults import injector_from_dict, schedule_from_dict
from repro.middleware import FreerideGRuntime
from repro.middleware.kernels import KernelBook
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.workloads.clusters import (
    DEFAULT_BANDWIDTH,
    HALF_LOW_BANDWIDTH,
    LOW_BANDWIDTH,
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)
from repro.workloads.configs import PAPER_CONFIG_GRID, make_run_config
from repro.workloads.registry import WORKLOADS, WorkloadSpec

__all__ = [
    "ExperimentRow",
    "ExperimentResult",
    "ExperimentSpec",
    "EXPERIMENTS",
    "FAST_CONFIG_GRID",
    "run_experiment",
    "run_grid_experiment",
    "run_fault_scenario",
]

#: Reduced grid used by tests (`fast=True`) to keep runtimes low.
FAST_CONFIG_GRID: List[Tuple[int, int]] = [(1, 1), (1, 4), (2, 4), (4, 8)]

#: Configuration the representatives run on to measure cross-cluster factors.
FACTOR_NODES: Tuple[int, int] = (2, 4)


@dataclass(frozen=True)
class ExperimentRow:
    """One (configuration, model) cell of a figure."""

    data_nodes: int
    compute_nodes: int
    model: str
    actual: float
    predicted: float

    @property
    def label(self) -> str:
        return f"{self.data_nodes}-{self.compute_nodes}"

    @property
    def error(self) -> float:
        """Relative prediction error (fraction)."""
        return relative_error(self.actual, self.predicted)


@dataclass
class ExperimentResult:
    """All rows of one reproduced figure."""

    experiment_id: str
    title: str
    workload: str
    rows: List[ExperimentRow] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def models(self) -> List[str]:
        """Model labels present, in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            if row.model not in seen:
                seen.append(row.model)
        return seen

    def rows_for_model(self, model: str) -> List[ExperimentRow]:
        """All rows produced by one model."""
        return [r for r in self.rows if r.model == model]

    def errors_for_model(self, model: str) -> List[float]:
        """Relative errors of one model across configurations."""
        return [r.error for r in self.rows_for_model(model)]

    def max_error(self, model: str) -> float:
        """Worst-case relative error of one model."""
        errors = self.errors_for_model(model)
        if not errors:
            raise ConfigurationError(f"no rows for model '{model}'")
        return max(errors)

    def mean_error(self, model: str) -> float:
        """Mean relative error of one model."""
        errors = self.errors_for_model(model)
        if not errors:
            raise ConfigurationError(f"no rows for model '{model}'")
        return sum(errors) / len(errors)


def _workload(name: str) -> WorkloadSpec:
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ConfigurationError(f"unknown workload '{name}'")
    return spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure as a record: what differs between profile and target.

    The ``profile_*`` fields describe the single base-profile run, the
    ``target_*`` fields every run over the configuration grid.
    ``target_size=None`` is the workload's default dataset and
    ``profile_size=None`` the same dataset as the target.
    ``nested_models`` predicts with the three model levels of Figures
    2-6 instead of the global-reduction model alone.  ``representatives``
    makes the experiment cross-cluster (Section 3.4): profile on the
    Pentium/Myrinet cluster, grid on the Opteron/InfiniBand one, scaling
    factors averaged over the named applications.  ``scenario`` (the
    :mod:`repro.faults.scenario` JSON mapping) runs the grid under that
    fault schedule and predicts it with the degraded-mode model.

    Everything that does not depend on a grid configuration is checked
    here, so a bad record fails where it is written, not when it runs.
    """

    experiment_id: str
    title: str
    workload: str
    profile_nodes: Tuple[int, int] = (1, 1)
    profile_size: Optional[str] = None
    target_size: Optional[str] = None
    profile_bandwidth: float = DEFAULT_BANDWIDTH
    target_bandwidth: float = DEFAULT_BANDWIDTH
    nested_models: bool = False
    representatives: Tuple[str, ...] = ()
    scenario: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        workload = _workload(self.workload)
        workload.model_bytes(self.profile_size)
        workload.model_bytes(self.target_size)
        if self.workload in self.representatives:
            raise ConfigurationError(
                "the predicted application must not be a representative"
            )
        for name in self.representatives:
            _workload(name)
        if self.scenario is not None:
            schedule_from_dict(self.scenario)


def _measure_cluster_factors(
    representatives: Sequence[str],
    cluster_a: ClusterSpec,
    cluster_b: ClusterSpec,
    book: KernelBook,
) -> ComponentScalingFactors:
    """Section 3.4: run each representative application on the same
    configuration on both clusters and average the component ratios."""
    rep_n, rep_c = FACTOR_NODES
    pairs = []
    for rep_name in representatives:
        rep = _workload(rep_name)
        dataset, kernels = book.lookup(rep, rep.default_size)
        profiles = []
        for cluster in (cluster_a, cluster_b):
            config = make_run_config(rep_n, rep_c, storage_cluster=cluster)
            run = FreerideGRuntime(config, kernels=kernels).execute(
                rep.make_app(), dataset
            )
            profiles.append(Profile.from_run(config, run.breakdown))
        pairs.append((profiles[0], profiles[1]))
    return measure_scaling_factors(pairs)


def run_grid_experiment(
    spec: ExperimentSpec, fast: bool = False, book: Optional[KernelBook] = None
) -> ExperimentResult:
    """Run one :class:`ExperimentSpec` through the paper's protocol.

    Owns the only base-profile run, the only grid loop and the only
    metadata assembly: every figure and every fault-scenario sweep is
    this function applied to a different record.  The workload is looked
    up when the experiment runs.  Datasets and the :class:`KernelTrace`
    of their chunk kernels come from ``book`` — the base profile, every
    grid cell and the cross-cluster representatives are priced from one
    execution of the kernels per dataset.  Without a book the call keeps
    a private one and drops it when it returns; a caller running several
    experiments hands them one book, and the rows are the same bits
    either way (a breakdown is exact from any recording run).  A
    fault-free grid cell with the profile's configuration and dataset
    (Figures 2-6's 1-1) is the base-profile run and is not executed
    again.
    """
    if book is None:
        book = KernelBook()
    workload = _workload(spec.workload)
    target_label = spec.target_size or workload.default_size
    profile_label = spec.profile_size or target_label
    dataset, kernels = book.lookup(workload, target_label)
    profile_dataset, profile_kernels = book.lookup(workload, profile_label)

    pn, pc = spec.profile_nodes
    metadata: Dict[str, object] = {"base_profile": f"{pn}-{pc}"}
    if spec.profile_bandwidth != spec.target_bandwidth:
        metadata["profile_bandwidth"] = spec.profile_bandwidth
        metadata["target_bandwidth"] = spec.target_bandwidth
    elif profile_label != target_label:
        metadata["profile_dataset"] = profile_label
        metadata["target_dataset"] = target_label
    else:
        metadata["dataset"] = target_label

    classes = ModelClasses.parse(
        workload.natural_object_class, workload.natural_global_class
    )
    full_model = GlobalReductionModel(classes)
    models: List[PredictionModel] = [full_model]
    if spec.nested_models:
        models = [
            NoCommunicationModel(),
            ReductionCommunicationModel(classes),
            full_model,
        ]
        metadata["dataset_bytes"] = dataset.nbytes
    profile_cluster = target_cluster = None
    if spec.representatives:
        profile_cluster = pentium_myrinet_cluster()
        target_cluster = opteron_infiniband_cluster()
        factors = _measure_cluster_factors(
            spec.representatives, profile_cluster, target_cluster, book
        )
        models = [CrossClusterPredictor(full_model, factors)]
        per_app = (factors.per_app or {}).items()
        metadata.update(
            representatives=list(spec.representatives),
            sd=factors.sd,
            sn=factors.sn,
            sc=factors.sc,
            per_app_sc={app: ratios[2] for app, ratios in per_app},
        )
    scenario = spec.scenario
    schedule = None
    if scenario is not None:
        schedule = schedule_from_dict(scenario)
        degraded = DegradedModePredictor(full_model)
        metadata["scenario"] = dict(scenario)

    profile_config = make_run_config(
        pn, pc, storage_cluster=profile_cluster, bandwidth=spec.profile_bandwidth
    )
    profile_run = FreerideGRuntime(
        profile_config, kernels=profile_kernels
    ).execute(workload.make_app(), profile_dataset)
    profile = Profile.from_run(profile_config, profile_run.breakdown)

    result = ExperimentResult(
        spec.experiment_id, spec.title, spec.workload, metadata=metadata
    )
    grid = FAST_CONFIG_GRID if fast else PAPER_CONFIG_GRID
    for n, c in grid:
        config = make_run_config(
            n, c, storage_cluster=target_cluster, bandwidth=spec.target_bandwidth
        )
        faults = None if scenario is None else injector_from_dict(scenario)
        if faults is None and config == profile_config and dataset is profile_dataset:
            # This cell is the base-profile run (the paper's 1-1 profile).
            run = profile_run
        else:
            run = FreerideGRuntime(config, faults, kernels).execute(
                workload.make_app(), dataset
            )
        target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
        if schedule is None:
            totals = [(m.label, m.predict(profile, target).total) for m in models]
        else:
            prediction = degraded.predict(profile, target, schedule)
            totals = [("degraded mode", prediction.total)]
        for label, predicted in totals:
            result.rows.append(
                ExperimentRow(n, c, label, run.breakdown.total, predicted)
            )
    return result


def run_fault_scenario(
    workload: str,
    experiment_id: str,
    title: str,
    scenario: Dict[str, object],
    size_label: Optional[str] = None,
    fast: bool = False,
) -> ExperimentResult:
    """Sweep a fault scenario across the configuration grid.

    The Figure 2-6 protocol extended to unreliable grids: profile once on
    a clean 1-1 run, run every grid configuration under ``scenario`` and
    predict it with the degraded-mode model.  The scenario must be valid
    for every configuration in the grid (node indices in range).
    """
    spec = ExperimentSpec(
        experiment_id, title, workload, target_size=size_label, scenario=scenario
    )
    return run_grid_experiment(spec, fast)


# ---------------------------------------------------------------------------
# The figure registry: one record per reproduced figure.
# ---------------------------------------------------------------------------

_SPECS = (
    # Figures 2-6: the three model levels, base profile 1-1.
    ExperimentSpec(
        "fig02",
        "Prediction Errors for k-means Clustering, base profile 1-1, 1.4 GB",
        "kmeans",
        nested_models=True,
    ),
    ExperimentSpec(
        "fig03",
        "Prediction Errors for Vortex Detection, base profile 1-1, 710 MB",
        "vortex",
        nested_models=True,
    ),
    ExperimentSpec(
        "fig04",
        "Prediction Errors for Molecular Defect Detection, base profile 1-1, 130 MB",
        "defect",
        nested_models=True,
    ),
    ExperimentSpec(
        "fig05",
        "Prediction Errors for EM Clustering, base profile 1-1, 1.4 GB",
        "em",
        nested_models=True,
    ),
    ExperimentSpec(
        "fig06",
        "Prediction Errors for KNN Search, base profile 1-1, 1.4 GB",
        "knn",
        nested_models=True,
    ),
    # Figures 7-8: profile on a small dataset, predict a large one.
    ExperimentSpec(
        "fig07",
        "Prediction Errors for EM Clustering, 1.4 GB dataset, "
        "base profile 1-1 with 350 MB",
        "em",
        profile_size="350 MB",
        target_size="1.4 GB",
    ),
    ExperimentSpec(
        "fig08",
        "Prediction Errors for Molecular Defect Detection with 1.8 GB "
        "dataset, base profile 1-1 with 130 MB",
        "defect",
        profile_size="130 MB",
        target_size="1.8 GB",
    ),
    # Figures 9-10: profile at one synthetic bandwidth, predict another.
    ExperimentSpec(
        "fig09",
        "Prediction Errors for Molecular Defect Detection with 250 Kbps, "
        "base profile 1-1 with 500 Kbps",
        "defect",
        profile_bandwidth=LOW_BANDWIDTH,
        target_bandwidth=HALF_LOW_BANDWIDTH,
    ),
    ExperimentSpec(
        "fig10",
        "Prediction Errors for EM Clustering with 250 Kbps, "
        "base profile 1-1 with 500 Kbps",
        "em",
        profile_bandwidth=LOW_BANDWIDTH,
        target_bandwidth=HALF_LOW_BANDWIDTH,
    ),
    # Figures 11-13: Pentium-cluster profile, Opteron-cluster target; the
    # application under test is never one of its own representatives.
    ExperimentSpec(
        "fig11",
        "Prediction Errors for EM Clustering on a Different Cluster, "
        "700 MB dataset, base profile 8-8 with 350 MB",
        "em",
        profile_nodes=(8, 8),
        profile_size="350 MB",
        target_size="700 MB",
        representatives=("kmeans", "knn", "vortex"),
    ),
    ExperimentSpec(
        "fig12",
        "Prediction Errors for Molecular Defect Detection on a Different "
        "Cluster, 1.8 GB dataset, base profile 4-4 with 130 MB",
        "defect",
        profile_nodes=(4, 4),
        profile_size="130 MB",
        target_size="1.8 GB",
        representatives=("kmeans", "knn", "em"),
    ),
    ExperimentSpec(
        "fig13",
        "Prediction Errors for Vortex Detection on a Different Cluster, "
        "1.85 GB dataset, base profile 1-1 with 710 MB",
        "vortex",
        profile_size="710 MB",
        target_size="1.85 GB",
        representatives=("kmeans", "knn", "em"),
    ),
    # Extension experiments: the Section 2.2 applications the paper names
    # but does not evaluate, run under the Figure 2-6 protocol.
    ExperimentSpec(
        "ext-apriori",
        "Prediction Errors for Apriori Association Mining (extension), "
        "base profile 1-1, 1 GB",
        "apriori",
        nested_models=True,
    ),
    ExperimentSpec(
        "ext-neuralnet",
        "Prediction Errors for Neural Network Training (extension), "
        "base profile 1-1, 1 GB",
        "neuralnet",
        nested_models=True,
    ),
)

EXPERIMENTS: Dict[str, ExperimentSpec] = {s.experiment_id: s for s in _SPECS}


def run_experiment(experiment_id: str, fast: bool = False) -> ExperimentResult:
    """Run one figure reproduction by id (``"fig02"`` ... ``"fig13"``)."""
    spec = EXPERIMENTS.get(experiment_id)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment '{experiment_id}'; known: {sorted(EXPERIMENTS)}"
        )
    return run_grid_experiment(spec, fast)
