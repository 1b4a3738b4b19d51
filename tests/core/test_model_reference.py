"""The three model levels against a frozen copy of their equations.

``_reference_*`` below are verbatim copies of the component formulas and
the three ``predict`` bodies as they stood when each model level had its
own body.  Every model level — and :class:`CrossClusterPredictor` around
each — must reproduce them bit for bit: ``==`` and ``repr`` on all five
breakdown fields, so a refactor of the equations can reorder no
floating-point operation without failing here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classes import (
    GlobalReductionClass,
    ModelClasses,
    ReductionObjectClass,
    estimate_global_reduction_time,
    estimate_object_size,
)
from repro.core.heterogeneous import ComponentScalingFactors, CrossClusterPredictor
from repro.core.models import (
    GlobalReductionModel,
    NoCommunicationModel,
    PredictedBreakdown,
    ReductionCommunicationModel,
)
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.scheduler import RunConfig
from repro.simgrid.network import CommCostModel
from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)

from tests.conftest import small_cluster_spec

CLUSTERS = (
    pentium_myrinet_cluster(),
    opteron_infiniband_cluster(),
    small_cluster_spec(),
)
COMPONENTS = ("disk", "network", "compute")


# -- the reference: the equations as they were, copied verbatim -----------


def _reference_disk(profile, target):
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    node_ratio = profile.data_nodes / target.data_nodes
    return size_ratio * node_ratio * profile.t_disk


def _reference_network(profile, target):
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    node_ratio = profile.data_nodes / target.data_nodes
    bw_ratio = profile.bandwidth / target.bandwidth
    return size_ratio * node_ratio * bw_ratio * profile.t_network


def _reference_compute_naive(profile, target):
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    slot_ratio = profile.compute_slots / target.config.compute_slots
    return size_ratio * slot_ratio * profile.t_compute


def _reference_reduction_comm(profile, target, object_class, comm_model):
    r_hat = estimate_object_size(profile, target, object_class)
    per_round = comm_model.gather_time(target.compute_nodes, r_hat)
    if profile.broadcast_bytes > 0:
        per_round += comm_model.gather_time(
            target.compute_nodes, profile.broadcast_bytes
        )
    return profile.gather_rounds * per_round


def _reference_no_comm(profile, target):
    return PredictedBreakdown(
        t_disk=_reference_disk(profile, target),
        t_network=_reference_network(profile, target),
        t_compute=_reference_compute_naive(profile, target),
    )


def _reference_reduction(profile, target, classes):
    comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
    t_ro_hat = _reference_reduction_comm(
        profile, target, classes.object_size, comm_model
    )
    scalable = max(profile.t_compute - profile.t_ro, 0.0)
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    slot_ratio = profile.compute_slots / target.config.compute_slots
    t_compute = size_ratio * slot_ratio * scalable + t_ro_hat
    return PredictedBreakdown(
        t_disk=_reference_disk(profile, target),
        t_network=_reference_network(profile, target),
        t_compute=t_compute,
        t_ro=t_ro_hat,
    )


def _reference_global(profile, target, classes):
    comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
    t_ro_hat = _reference_reduction_comm(
        profile, target, classes.object_size, comm_model
    )
    t_g_hat = estimate_global_reduction_time(
        profile, target, classes.global_reduction
    )
    scalable = profile.scalable_compute
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    slot_ratio = profile.compute_slots / target.config.compute_slots
    t_compute = size_ratio * slot_ratio * scalable + t_ro_hat + t_g_hat
    return PredictedBreakdown(
        t_disk=_reference_disk(profile, target),
        t_network=_reference_network(profile, target),
        t_compute=t_compute,
        t_ro=t_ro_hat,
        t_g=t_g_hat,
    )


def _reference_scaled(breakdown, sd, sn, sc):
    ratio = sc
    return PredictedBreakdown(
        t_disk=breakdown.t_disk * sd,
        t_network=breakdown.t_network * sn,
        t_compute=breakdown.t_compute * sc,
        t_ro=breakdown.t_ro * ratio,
        t_g=breakdown.t_g * ratio,
    )


def _reference_cross(reference, profile, target, factors, apply):
    same_cluster_config = target.config.with_clusters(
        profile.storage_cluster, profile.compute_cluster
    )
    on_a = reference(profile, replace(target, config=same_cluster_config))
    return _reference_scaled(
        on_a,
        factors.sd if "disk" in apply else 1.0,
        factors.sn if "network" in apply else 1.0,
        factors.sc if "compute" in apply else 1.0,
    )


# -- the comparison -----------------------------------------------------------


def _fields(breakdown):
    return (
        breakdown.t_disk,
        breakdown.t_network,
        breakdown.t_compute,
        breakdown.t_ro,
        breakdown.t_g,
    )


def _assert_identical(got, expected):
    assert _fields(got) == _fields(expected)
    assert repr(_fields(got)) == repr(_fields(expected))


def _levels(classes):
    return (
        (NoCommunicationModel(), _reference_no_comm),
        (
            ReductionCommunicationModel(classes),
            lambda p, t: _reference_reduction(p, t, classes),
        ),
        (
            GlobalReductionModel(classes),
            lambda p, t: _reference_global(p, t, classes),
        ),
    )


def _assert_all_levels_match(profile, target, classes, factors, apply):
    # The verbatim cross reference re-validates the target on cluster A, so
    # past A's SMP width it runs on an A as wide as B: A's width is no input
    # of the equations, and the predictor must not refuse such a target.
    b_width = target.config.compute_cluster.smp_width
    reference_profile = profile
    if target.config.processes_per_node > profile.compute_cluster.smp_width:
        reference_profile = replace(
            profile,
            compute_cluster=replace(profile.compute_cluster, smp_width=b_width),
        )
    for model, reference in _levels(classes):
        _assert_identical(
            model.predict(profile, target), reference(profile, target)
        )
        _assert_identical(
            CrossClusterPredictor(model, factors, apply).predict(profile, target),
            _reference_cross(reference, reference_profile, target, factors, apply),
        )


# -- the inputs ---------------------------------------------------------------

positive = st.floats(min_value=1e-3, max_value=1e3)
sizes = st.floats(min_value=1e4, max_value=1e10)
bandwidths = st.floats(min_value=1e4, max_value=1e9)


@st.composite
def serialized_times(draw):
    """``(t_compute, t_ro, t_g)``, sometimes with the ``max(…, 0)`` clamp firing.

    A profile may carry ``T_ro + T_g`` up to 1e-12 s above ``t_c``; when it
    does, ``t_c - T_ro`` (with ``T_g = 0``) or ``t_c - T_ro - T_g`` is
    negative and the scalable part is clamped to 0.
    """
    clamp = draw(st.booleans())
    t_ro = draw(st.floats(min_value=1e-3 if clamp else 0.0, max_value=10.0))
    t_g = draw(st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=10.0))
    if clamp:
        overshoot = draw(st.floats(min_value=1e-13, max_value=9e-13))
        return t_ro + t_g - overshoot, t_ro, t_g
    return t_ro + t_g + draw(positive), t_ro, t_g


@st.composite
def cases(draw):
    storage_a, compute_a, storage_b, compute_b = (
        draw(st.sampled_from(CLUSTERS)) for _ in range(4)
    )
    t_compute, t_ro, t_g = draw(serialized_times())
    n = draw(st.integers(1, 8))
    profile = Profile(
        app="reference",
        storage_cluster=storage_a,
        compute_cluster=compute_a,
        data_nodes=n,
        compute_nodes=draw(st.integers(n, 16)),
        bandwidth=draw(bandwidths),
        dataset_bytes=draw(sizes),
        t_disk=draw(positive),
        t_network=draw(positive),
        t_compute=t_compute,
        t_ro=t_ro,
        t_g=t_g,
        max_object_bytes=draw(st.floats(min_value=0.0, max_value=1e7)),
        broadcast_bytes=draw(
            st.sampled_from([0.0]) | st.floats(min_value=1.0, max_value=1e6)
        ),
        gather_rounds=draw(st.integers(1, 20)),
        processes_per_node=draw(st.integers(1, 4)),
    )
    n_hat = draw(st.integers(1, 8))
    config = RunConfig(
        storage_cluster=storage_b,
        compute_cluster=compute_b,
        data_nodes=n_hat,
        compute_nodes=draw(st.integers(n_hat, 16)),
        bandwidth=draw(bandwidths),
        processes_per_node=draw(st.integers(1, compute_b.smp_width)),
    )
    target = PredictionTarget(config=config, dataset_bytes=draw(sizes))
    classes = ModelClasses(
        object_size=draw(st.sampled_from(list(ReductionObjectClass))),
        global_reduction=draw(st.sampled_from(list(GlobalReductionClass))),
    )
    factors = ComponentScalingFactors(
        sd=draw(st.floats(min_value=0.1, max_value=10.0)),
        sn=draw(st.floats(min_value=0.1, max_value=10.0)),
        sc=draw(st.floats(min_value=0.1, max_value=10.0)),
    )
    apply = tuple(
        draw(st.lists(st.sampled_from(COMPONENTS), min_size=1, unique=True))
    )
    return profile, target, classes, factors, apply


@settings(max_examples=300, deadline=None)
@given(cases())
def test_every_level_matches_the_reference_equations(case):
    _assert_all_levels_match(*case)


def _clamp_case(t_compute, t_ro, t_g):
    cluster = small_cluster_spec()
    profile = Profile(
        app="reference", storage_cluster=cluster, compute_cluster=cluster,
        data_nodes=1, compute_nodes=2, bandwidth=5e5, dataset_bytes=1e6,
        t_disk=1.0, t_network=2.0, t_compute=t_compute, t_ro=t_ro, t_g=t_g,
        max_object_bytes=512.0, broadcast_bytes=64.0, gather_rounds=3,
        processes_per_node=2,
    )
    config = RunConfig(
        storage_cluster=pentium_myrinet_cluster(),
        compute_cluster=opteron_infiniband_cluster(),
        data_nodes=2, compute_nodes=8, bandwidth=2.5e5, processes_per_node=2,
    )
    return profile, PredictionTarget(config=config, dataset_bytes=3e6)


@pytest.mark.parametrize(
    "times, clamped",
    [
        # t_c - T_ro < 0: both refined levels clamp.
        ((0.3 - 5e-13, 0.3, 0.0), "t_c - T_ro"),
        # t_c - T_ro > 0 but t_c - T_ro - T_g < 0: only the global level does.
        ((0.5 - 5e-13, 0.3, 0.2), "t_c - T_ro - T_g"),
    ],
)
@pytest.mark.parametrize("object_class", list(ReductionObjectClass))
@pytest.mark.parametrize("global_class", list(GlobalReductionClass))
def test_clamped_scalable_compute_matches_the_reference(
    times, clamped, object_class, global_class
):
    profile, target = _clamp_case(*times)
    t_compute, t_ro, t_g = times
    residual = t_compute - t_ro if clamped == "t_c - T_ro" else t_compute - t_ro - t_g
    assert residual < 0.0
    classes = ModelClasses(object_size=object_class, global_reduction=global_class)
    factors = ComponentScalingFactors(sd=0.5, sn=1.5, sc=0.3)
    _assert_all_levels_match(profile, target, classes, factors, COMPONENTS)
