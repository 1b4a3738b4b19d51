"""Shared fixtures for prediction-framework tests."""

from __future__ import annotations

import pytest

from repro.core.models import NoCommunicationModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.scheduler import RunConfig

from tests.conftest import small_cluster_spec


def make_profile(
    n=1,
    c=1,
    s=1.0e6,
    b=5.0e5,
    t_disk=1.0,
    t_network=2.0,
    t_compute=4.0,
    t_ro=0.2,
    t_g=0.1,
    r=512.0,
    broadcast=0.0,
    rounds=1,
    app="test-app",
    cluster=None,
):
    cluster = cluster or small_cluster_spec()
    return Profile(
        app=app,
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=b,
        dataset_bytes=s,
        t_disk=t_disk,
        t_network=t_network,
        t_compute=t_compute,
        t_ro=t_ro,
        t_g=t_g,
        max_object_bytes=r,
        broadcast_bytes=broadcast,
        gather_rounds=rounds,
    )


def make_target(n=2, c=4, s=2.0e6, b=5.0e5, cluster=None):
    cluster = cluster or small_cluster_spec()
    config = RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=b,
    )
    return PredictionTarget(config=config, dataset_bytes=s)


def disk_term(profile, target):
    """T̂_disk, as every model level predicts it."""
    return NoCommunicationModel().predict(profile, target).t_disk


def network_term(profile, target):
    """T̂_network, as every model level predicts it."""
    return NoCommunicationModel().predict(profile, target).t_network


def naive_compute_term(profile, target):
    """T̂_compute = (ŝ/s)(c/ĉ) t_c, the no-communication level's."""
    return NoCommunicationModel().predict(profile, target).t_compute


@pytest.fixture
def profile():
    return make_profile()


@pytest.fixture
def target():
    return make_target()
