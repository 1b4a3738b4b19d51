"""Shared helpers for application tests."""

from __future__ import annotations

from repro.middleware.runtime import FreerideGRuntime, RunResult
from repro.middleware.scheduler import RunConfig

from tests.conftest import small_cluster_spec


def execute(app, dataset, data_nodes=1, compute_nodes=1, bandwidth=5e5) -> RunResult:
    """Run an application on the tiny test cluster."""
    cluster = small_cluster_spec()
    config = RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=data_nodes,
        compute_nodes=compute_nodes,
        bandwidth=bandwidth,
    )
    return FreerideGRuntime(config).execute(app, dataset)


#: Configurations used by the config-invariance tests.
INVARIANCE_CONFIGS = [(1, 1), (1, 4), (2, 4), (4, 8), (8, 16)]
