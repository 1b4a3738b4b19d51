"""Tests for the component predictors (the paper's Section 3.2-3.3.1 formulas)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.classes import ReductionObjectClass
from repro.core.predictors import (
    predict_compute_naive,
    predict_disk_time,
    predict_network_time,
    predict_reduction_comm_time,
)
from repro.simgrid.network import CommCostModel

from tests.core.conftest import make_profile, make_target

pos_small = st.floats(min_value=0.1, max_value=100.0)
node_counts = st.integers(1, 16)


class TestDiskPredictor:
    def test_formula(self):
        profile = make_profile(n=2, s=1e6, t_disk=4.0)
        target = make_target(n=4, c=4, s=3e6)
        # (3e6/1e6) * (2/4) * 4.0
        assert predict_disk_time(profile, target) == pytest.approx(6.0)

    def test_identity_on_profile_config(self):
        profile = make_profile(n=2, c=4)
        target = make_target(n=2, c=4, s=profile.dataset_bytes)
        assert predict_disk_time(profile, target) == pytest.approx(profile.t_disk)

    @given(node_counts, node_counts, pos_small)
    def test_inverse_in_target_nodes(self, n_profile, n_target, t_disk):
        profile = make_profile(n=n_profile, c=16, t_disk=t_disk)
        target_half = make_target(n=n_target, c=16, s=profile.dataset_bytes)
        predicted = predict_disk_time(profile, target_half)
        assert predicted == pytest.approx(t_disk * n_profile / n_target)


class TestNetworkPredictor:
    def test_formula_includes_bandwidth_ratio(self):
        profile = make_profile(n=1, b=1e6, s=1e6, t_network=2.0)
        target = make_target(n=2, c=4, s=2e6, b=5e5)
        # (2e6/1e6) * (1/2) * (1e6/5e5) * 2.0
        assert predict_network_time(profile, target) == pytest.approx(4.0)

    def test_halving_bandwidth_doubles_time(self):
        profile = make_profile(b=1e6)
        slow = make_target(n=1, c=1, s=profile.dataset_bytes, b=5e5)
        fast = make_target(n=1, c=1, s=profile.dataset_bytes, b=1e6)
        assert predict_network_time(profile, slow) == pytest.approx(
            2.0 * predict_network_time(profile, fast)
        )

    def test_time_scales_inversely_with_data_nodes(self):
        profile = make_profile(n=1)
        target = make_target(n=4, c=4, s=profile.dataset_bytes, b=profile.bandwidth)
        assert predict_network_time(profile, target) == pytest.approx(
            profile.t_network / 4.0
        )


class TestComputePredictorNaive:
    def test_formula(self):
        profile = make_profile(c=2, s=1e6, t_compute=8.0)
        target = make_target(n=2, c=8, s=2e6)
        # (2e6/1e6) * (2/8) * 8
        assert predict_compute_naive(profile, target) == pytest.approx(4.0)

    @given(node_counts, pos_small)
    def test_linear_speedup_assumption(self, c, t_compute):
        profile = make_profile(c=1, t_compute=t_compute, t_ro=0.0, t_g=0.0)
        target = make_target(n=1, c=c, s=profile.dataset_bytes)
        assert predict_compute_naive(profile, target) == pytest.approx(
            t_compute / c
        )


class TestReductionCommPredictor:
    def test_single_node_is_free(self):
        profile = make_profile(r=1024.0)
        target = make_target(n=1, c=1, s=profile.dataset_bytes)
        predicted = predict_reduction_comm_time(
            profile, target, ReductionObjectClass.CONSTANT
        )
        assert predicted == 0.0

    def test_constant_class_uses_profile_object_size(self):
        profile = make_profile(r=1000.0, rounds=1)
        target = make_target(n=1, c=5, s=profile.dataset_bytes)
        comm = CommCostModel(w=1e-6, l=1e-4)
        predicted = predict_reduction_comm_time(
            profile, target, ReductionObjectClass.CONSTANT, comm
        )
        assert predicted == pytest.approx(4 * (1e-6 * 1000.0 + 1e-4))

    def test_linear_class_scales_with_data_share(self):
        profile = make_profile(c=1, s=1e6, r=1000.0, rounds=1)
        # same total data, 4 nodes -> per-node share and object shrink 4x
        target = make_target(n=1, c=4, s=1e6)
        comm = CommCostModel(w=1e-6, l=0.0)
        predicted = predict_reduction_comm_time(
            profile, target, ReductionObjectClass.LINEAR, comm
        )
        assert predicted == pytest.approx(3 * 1e-6 * 250.0)

    def test_broadcast_adds_messages(self):
        comm = CommCostModel(w=1e-6, l=1e-4)
        no_bcast = make_profile(r=1000.0, broadcast=0.0)
        with_bcast = make_profile(r=1000.0, broadcast=500.0)
        target = make_target(n=1, c=3, s=no_bcast.dataset_bytes)
        base = predict_reduction_comm_time(
            no_bcast, target, ReductionObjectClass.CONSTANT, comm
        )
        extra = predict_reduction_comm_time(
            with_bcast, target, ReductionObjectClass.CONSTANT, comm
        )
        assert extra == pytest.approx(base + 2 * (1e-6 * 500.0 + 1e-4))

    def test_gather_rounds_multiply(self):
        comm = CommCostModel(w=1e-6, l=1e-4)
        one = make_profile(rounds=1)
        ten = make_profile(rounds=10)
        target = make_target(n=1, c=4, s=one.dataset_bytes)
        assert predict_reduction_comm_time(
            ten, target, ReductionObjectClass.CONSTANT, comm
        ) == pytest.approx(
            10
            * predict_reduction_comm_time(
                one, target, ReductionObjectClass.CONSTANT, comm
            )
        )

    def test_default_comm_model_fitted_from_cluster(self):
        profile = make_profile()
        target = make_target(n=1, c=2, s=profile.dataset_bytes)
        predicted = predict_reduction_comm_time(
            profile, target, ReductionObjectClass.CONSTANT
        )
        cluster = target.config.compute_cluster
        expected = cluster.gather_message_time(profile.max_object_bytes)
        assert predicted == pytest.approx(expected, rel=1e-6)
