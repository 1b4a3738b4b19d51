"""The paper's component predictors (Sections 3.2-3.3.1), read off the
breakdown of the model level that computes each term."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.classes import (
    GlobalReductionClass,
    ModelClasses,
    ReductionObjectClass,
)
from repro.core.models import ReductionCommunicationModel

from tests.conftest import small_cluster_spec
from tests.core.conftest import (
    disk_term,
    make_profile,
    make_target,
    naive_compute_term,
    network_term,
)

pos_small = st.floats(min_value=0.1, max_value=100.0)
node_counts = st.integers(1, 16)


def t_ro(profile, target, object_class):
    classes = ModelClasses(object_class, GlobalReductionClass.LINEAR_CONSTANT)
    return ReductionCommunicationModel(classes).predict(profile, target).t_ro


def comm_cluster(w, l):
    """A cluster whose fitted reduction-object message cost is ``(w, l)``."""
    return replace(small_cluster_spec(), intra_latency_s=l, intra_bw=1.0 / w)


class TestDiskPredictor:
    def test_formula(self):
        profile = make_profile(n=2, s=1e6, t_disk=4.0)
        target = make_target(n=4, c=4, s=3e6)
        # (3e6/1e6) * (2/4) * 4.0
        assert disk_term(profile, target) == pytest.approx(6.0)

    def test_identity_on_profile_config(self):
        profile = make_profile(n=2, c=4)
        target = make_target(n=2, c=4, s=profile.dataset_bytes)
        assert disk_term(profile, target) == pytest.approx(profile.t_disk)

    @given(node_counts, node_counts, pos_small)
    def test_inverse_in_target_nodes(self, n_profile, n_target, t_disk):
        profile = make_profile(n=n_profile, c=16, t_disk=t_disk)
        target_half = make_target(n=n_target, c=16, s=profile.dataset_bytes)
        predicted = disk_term(profile, target_half)
        assert predicted == pytest.approx(t_disk * n_profile / n_target)


class TestNetworkPredictor:
    def test_formula_includes_bandwidth_ratio(self):
        profile = make_profile(n=1, b=1e6, s=1e6, t_network=2.0)
        target = make_target(n=2, c=4, s=2e6, b=5e5)
        # (2e6/1e6) * (1/2) * (1e6/5e5) * 2.0
        assert network_term(profile, target) == pytest.approx(4.0)

    def test_halving_bandwidth_doubles_time(self):
        profile = make_profile(b=1e6)
        slow = make_target(n=1, c=1, s=profile.dataset_bytes, b=5e5)
        fast = make_target(n=1, c=1, s=profile.dataset_bytes, b=1e6)
        assert network_term(profile, slow) == pytest.approx(
            2.0 * network_term(profile, fast)
        )

    def test_time_scales_inversely_with_data_nodes(self):
        profile = make_profile(n=1)
        target = make_target(n=4, c=4, s=profile.dataset_bytes, b=profile.bandwidth)
        assert network_term(profile, target) == pytest.approx(profile.t_network / 4.0)


class TestComputePredictorNaive:
    def test_formula(self):
        profile = make_profile(c=2, s=1e6, t_compute=8.0)
        target = make_target(n=2, c=8, s=2e6)
        # (2e6/1e6) * (2/8) * 8
        assert naive_compute_term(profile, target) == pytest.approx(4.0)

    @given(node_counts, pos_small)
    def test_linear_speedup_assumption(self, c, t_compute):
        profile = make_profile(c=1, t_compute=t_compute, t_ro=0.0, t_g=0.0)
        target = make_target(n=1, c=c, s=profile.dataset_bytes)
        assert naive_compute_term(profile, target) == pytest.approx(t_compute / c)


class TestReductionCommPredictor:
    def test_single_node_is_free(self):
        profile = make_profile(r=1024.0)
        target = make_target(n=1, c=1, s=profile.dataset_bytes)
        assert t_ro(profile, target, ReductionObjectClass.CONSTANT) == 0.0

    def test_constant_class_uses_profile_object_size(self):
        cluster = comm_cluster(w=1e-6, l=1e-4)
        profile = make_profile(r=1000.0, rounds=1, cluster=cluster)
        target = make_target(n=1, c=5, s=profile.dataset_bytes, cluster=cluster)
        predicted = t_ro(profile, target, ReductionObjectClass.CONSTANT)
        assert predicted == pytest.approx(4 * (1e-6 * 1000.0 + 1e-4))

    def test_linear_class_scales_with_data_share(self):
        cluster = comm_cluster(w=1e-6, l=0.0)
        profile = make_profile(c=1, s=1e6, r=1000.0, rounds=1, cluster=cluster)
        # same total data, 4 nodes -> per-node share and object shrink 4x
        target = make_target(n=1, c=4, s=1e6, cluster=cluster)
        predicted = t_ro(profile, target, ReductionObjectClass.LINEAR)
        assert predicted == pytest.approx(3 * 1e-6 * 250.0)

    def test_broadcast_adds_messages(self):
        cluster = comm_cluster(w=1e-6, l=1e-4)
        no_bcast = make_profile(r=1000.0, broadcast=0.0, cluster=cluster)
        with_bcast = make_profile(r=1000.0, broadcast=500.0, cluster=cluster)
        target = make_target(n=1, c=3, s=no_bcast.dataset_bytes, cluster=cluster)
        base = t_ro(no_bcast, target, ReductionObjectClass.CONSTANT)
        extra = t_ro(with_bcast, target, ReductionObjectClass.CONSTANT)
        assert extra == pytest.approx(base + 2 * (1e-6 * 500.0 + 1e-4))

    def test_gather_rounds_multiply(self):
        cluster = comm_cluster(w=1e-6, l=1e-4)
        one = make_profile(rounds=1, cluster=cluster)
        ten = make_profile(rounds=10, cluster=cluster)
        target = make_target(n=1, c=4, s=one.dataset_bytes, cluster=cluster)
        assert t_ro(ten, target, ReductionObjectClass.CONSTANT) == pytest.approx(
            10 * t_ro(one, target, ReductionObjectClass.CONSTANT)
        )

    def test_default_comm_model_fitted_from_cluster(self):
        profile = make_profile()
        target = make_target(n=1, c=2, s=profile.dataset_bytes)
        predicted = t_ro(profile, target, ReductionObjectClass.CONSTANT)
        cluster = target.config.compute_cluster
        expected = cluster.gather_message_time(profile.max_object_bytes)
        assert predicted == pytest.approx(expected, rel=1e-6)
