"""Experiment definitions reproducing the paper's evaluation.

- :mod:`repro.workloads.clusters`    — the two testbed clusters (700 MHz
  Pentium + Myrinet; 2.4 GHz Opteron 250 + InfiniBand) as simulator specs.
- :mod:`repro.workloads.configs`     — the (data nodes, compute nodes)
  configuration grid of Section 5 (1-1 through 8-16).
- :mod:`repro.workloads.registry`    — application + dataset builders for
  the paper's five workloads at the paper's dataset sizes.
- :mod:`repro.workloads.experiments` — Figures 2-13 as a table of
  ``ExperimentSpec`` records and the one grid driver that runs them.
- :mod:`repro.workloads.traces`      — seeded job streams and
  trace-realistic workloads for broker experiments.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.workloads.clusters": (
            "DEFAULT_BANDWIDTH",
            "opteron_infiniband_cluster",
            "pentium_myrinet_cluster",
        ),
        "repro.workloads.configs": (
            "PAPER_CONFIG_GRID",
            "config_grid",
            "make_run_config",
        ),
        "repro.workloads.registry": (
            "WORKLOADS",
            "WorkloadSpec",
            "make_app",
            "make_dataset",
        ),
        "repro.workloads.traces.generate": ("StreamSpec", "generate_stream"),
    },
)
