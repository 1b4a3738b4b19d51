"""The paper's contribution: the performance prediction framework.

Given a single **profile run** (one configuration, one dataset size), the
framework predicts the execution time of a FREERIDE-G application on any
other configuration — a different number of storage nodes, compute nodes,
dataset size, network bandwidth, or even a different cluster — by modelling
the three components of ``T_exec = T_disk + T_network + T_compute``
separately (Section 3 of the paper):

- :mod:`repro.core.profile`       — the profile artefact collected from one
  execution.
- :mod:`repro.core.target`        — the configuration being predicted.
- :mod:`repro.core.classes`       — the reduction-object-size and
  global-reduction-time application classes (Sections 3.3.1-3.3.2).
- :mod:`repro.core.classify`      — class auto-detection from multiple
  profile runs.
- :mod:`repro.core.models`        — the component equations (Sections
  3.2-3.3) and the three nested model levels compared in Section 5.1 (*no
  communication*, *reduction communication*, *global reduction*).
- :mod:`repro.core.heterogeneous` — cross-cluster prediction via averaged
  component scaling factors (Section 3.4).
- :mod:`repro.core.selection`     — replica + computing-configuration
  selection (the middleware's resource-selection framework).
- :mod:`repro.core.errors`        — the relative-error metric of Section 5.
- :mod:`repro.core.degraded`      — the degraded-mode extension: expected
  recovery term ``T̂_recover`` for runs under an installed fault schedule.
- :mod:`repro.core.durable`       — crash-safe atomic JSON persistence
  shared by profile files, the result store, and the campaign journal.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.core.classes": (
            "GlobalReductionClass",
            "ModelClasses",
            "ReductionObjectClass",
            "estimate_global_reduction_time",
            "estimate_object_size",
        ),
        "repro.core.classify": (
            "classify_global_reduction",
            "classify_object_size",
        ),
        "repro.core.degraded": (
            "DegradedModePredictor",
            "DegradedPrediction",
            "RecoveryBreakdown",
        ),
        "repro.core.durable": (
            "CorruptStoreError",
            "FormatVersionError",
            "StoreError",
            "atomic_write_json",
            "atomic_write_text",
        ),
        "repro.core.errors": ("relative_error",),
        "repro.core.heterogeneous": (
            "ComponentScalingFactors",
            "CrossClusterPredictor",
            "measure_scaling_factors",
        ),
        "repro.core.models": (
            "GlobalReductionModel",
            "NoCommunicationModel",
            "PredictedBreakdown",
            "PredictionModel",
            "ReductionCommunicationModel",
        ),
        "repro.core.profile": ("Profile",),
        "repro.core.selection": (
            "InfeasibleSelectionError",
            "RejectedCandidate",
            "ResourceSelector",
            "SelectionCandidate",
            "SelectionOutcome",
        ),
        "repro.core.target": ("PredictionTarget",),
        "repro.core.whatif": (
            "ConfigurationForecast",
            "marginal_speedups",
            "recommend_nodes",
            "sweep_configurations",
        ),
    },
)
