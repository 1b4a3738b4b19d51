"""Experiment definitions reproducing the paper's evaluation.

- :mod:`repro.workloads.clusters`    — the two testbed clusters (700 MHz
  Pentium + Myrinet; 2.4 GHz Opteron 250 + InfiniBand) as simulator specs.
- :mod:`repro.workloads.configs`     — the (data nodes, compute nodes)
  configuration grid of Section 5 (1-1 through 8-16).
- :mod:`repro.workloads.registry`    — application + dataset builders for
  the paper's five workloads at the paper's dataset sizes.
- :mod:`repro.workloads.experiments` — Figures 2-13 as a table of
  ``ExperimentSpec`` records and the one grid driver that runs them.
- :mod:`repro.workloads.streams`     — seeded synthetic job streams for
  broker experiments.
"""

from repro.workloads.clusters import (
    DEFAULT_BANDWIDTH,
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)
from repro.workloads.configs import (
    PAPER_CONFIG_GRID,
    config_grid,
    make_run_config,
)
from repro.workloads.registry import (
    WORKLOADS,
    WorkloadSpec,
    make_app,
    make_dataset,
)
from repro.workloads.streams import StreamSpec, generate_stream

__all__ = [
    "DEFAULT_BANDWIDTH",
    "opteron_infiniband_cluster",
    "pentium_myrinet_cluster",
    "PAPER_CONFIG_GRID",
    "config_grid",
    "make_run_config",
    "WORKLOADS",
    "WorkloadSpec",
    "make_app",
    "make_dataset",
    "StreamSpec",
    "generate_stream",
]
