"""Metamorphic and algebraic properties of the prediction framework.

These are the laws the paper's formulas imply; hypothesis explores the
parameter space so regressions in any scaling factor are caught even where
no example-based test looks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classes import (
    GlobalReductionClass,
    ModelClasses,
    ReductionObjectClass,
    estimate_global_reduction_time,
    estimate_object_size,
)
from repro.core.heterogeneous import (
    ComponentScalingFactors,
    CrossClusterPredictor,
)
from repro.core.models import (
    GlobalReductionModel,
    NoCommunicationModel,
    ReductionCommunicationModel,
)

from tests.core.conftest import (
    disk_term,
    make_profile,
    make_target,
    naive_compute_term,
    network_term,
)

CLASSES = ModelClasses.parse("constant", "linear-constant")


sizes = st.floats(min_value=1e4, max_value=1e9)
scales = st.floats(min_value=0.1, max_value=10.0)
nodes = st.integers(1, 16)
times = st.floats(min_value=1e-3, max_value=1e3)


class TestComponentHomogeneity:
    """Every component predictor is homogeneous of degree 1 in ŝ."""

    @given(sizes, scales, nodes, times)
    def test_disk_scales_linearly_in_dataset(self, s, k, n, t_disk):
        profile = make_profile(s=s, t_disk=t_disk)
        base = make_target(n=n, c=16, s=s)
        scaled = make_target(n=n, c=16, s=s * k)
        assert disk_term(profile, scaled) == pytest.approx(
            k * disk_term(profile, base), rel=1e-9
        )

    @given(sizes, scales, nodes)
    def test_network_scales_linearly_in_dataset(self, s, k, n):
        profile = make_profile(s=s)
        base = make_target(n=n, c=16, s=s)
        scaled = make_target(n=n, c=16, s=s * k)
        assert network_term(profile, scaled) == pytest.approx(
            k * network_term(profile, base), rel=1e-9
        )

    @given(sizes, scales, nodes)
    def test_compute_scales_linearly_in_dataset(self, s, k, c):
        profile = make_profile(s=s, t_ro=0.0, t_g=0.0)
        base = make_target(n=1, c=c, s=s)
        scaled = make_target(n=1, c=c, s=s * k)
        assert naive_compute_term(profile, scaled) == pytest.approx(
            k * naive_compute_term(profile, base), rel=1e-9
        )


class TestBandwidthReciprocity:
    @given(st.floats(min_value=1e4, max_value=1e8), scales)
    def test_network_inverse_in_bandwidth(self, b, k):
        profile = make_profile(b=b)
        base = make_target(n=1, c=1, s=profile.dataset_bytes, b=b)
        scaled = make_target(n=1, c=1, s=profile.dataset_bytes, b=b * k)
        assert network_term(profile, scaled) == pytest.approx(
            network_term(profile, base) / k, rel=1e-9
        )


class TestIdentityPredictions:
    """Predicting the profile's own configuration reproduces the profile."""

    @given(nodes, nodes, times, times, times)
    @settings(max_examples=30)
    def test_no_comm_identity(self, n, extra, t_disk, t_network, t_compute):
        c = n + extra if n + extra <= 16 else 16
        if c < n:
            c = n
        profile = make_profile(
            n=n, c=c, t_disk=t_disk, t_network=t_network,
            t_compute=t_compute, t_ro=0.0, t_g=0.0,
        )
        target = make_target(
            n=n, c=c, s=profile.dataset_bytes, b=profile.bandwidth
        )
        predicted = NoCommunicationModel().predict(profile, target)
        assert predicted.total == pytest.approx(profile.total, rel=1e-9)


class TestMonotonicity:
    @given(nodes)
    def test_disk_nonincreasing_in_data_nodes(self, n):
        profile = make_profile()
        current = disk_term(
            profile, make_target(n=n, c=16, s=profile.dataset_bytes)
        )
        more = disk_term(
            profile, make_target(n=min(n + 1, 16), c=16, s=profile.dataset_bytes)
        )
        assert more <= current + 1e-12

    @given(st.integers(1, 15))
    def test_t_ro_nondecreasing_in_compute_nodes(self, c):
        profile = make_profile()
        model = GlobalReductionModel(CLASSES)
        fewer = model.predict(
            profile, make_target(n=1, c=c, s=profile.dataset_bytes)
        )
        more = model.predict(
            profile, make_target(n=1, c=c + 1, s=profile.dataset_bytes)
        )
        assert more.t_ro >= fewer.t_ro


class TestModelRelationships:
    @given(nodes, times, st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=30)
    def test_components_nonnegative(self, c, t_compute, serial_fraction):
        profile = make_profile(
            t_compute=t_compute,
            t_ro=t_compute * serial_fraction / 2,
            t_g=t_compute * serial_fraction / 2,
        )
        target = make_target(n=1, c=c, s=profile.dataset_bytes)
        for model in (
            NoCommunicationModel(),
            ReductionCommunicationModel(CLASSES),
            GlobalReductionModel(CLASSES),
        ):
            predicted = model.predict(profile, target)
            assert predicted.t_disk >= 0
            assert predicted.t_network >= 0
            assert predicted.t_compute >= 0
            assert predicted.total >= 0


class TestCrossClusterLaws:
    @given(times, times, times)
    @settings(max_examples=30)
    def test_unit_factors_reproduce_base_model(self, t_disk, t_network, t_compute):
        profile = make_profile(
            t_disk=t_disk, t_network=t_network, t_compute=t_compute,
            t_ro=0.0, t_g=0.0,
        )
        target = make_target(n=2, c=4, s=profile.dataset_bytes)
        base = NoCommunicationModel()
        unit = CrossClusterPredictor(
            base, ComponentScalingFactors(sd=1.0, sn=1.0, sc=1.0)
        )
        assert unit.predict(profile, target).total == pytest.approx(
            base.predict(profile, target).total, rel=1e-9
        )

    @given(scales, scales, scales)
    def test_factors_scale_components_independently(self, sd, sn, sc):
        profile = make_profile(t_ro=0.0, t_g=0.0)
        target = make_target(n=2, c=4, s=profile.dataset_bytes)
        base = NoCommunicationModel()
        on_a = base.predict(profile, target)
        on_b = CrossClusterPredictor(
            base, ComponentScalingFactors(sd=sd, sn=sn, sc=sc)
        ).predict(profile, target)
        assert on_b.t_disk == pytest.approx(sd * on_a.t_disk, rel=1e-9)
        assert on_b.t_network == pytest.approx(sn * on_a.t_network, rel=1e-9)
        assert on_b.t_compute == pytest.approx(sc * on_a.t_compute, rel=1e-9)


class TestClassEstimatorLaws:
    @given(sizes, nodes, scales)
    def test_constant_object_size_is_invariant(self, s, c, k):
        profile = make_profile(s=s, r=1234.0)
        target = make_target(n=1, c=c, s=s * k)
        assert (
            estimate_object_size(profile, target, ReductionObjectClass.CONSTANT)
            == 1234.0
        )

    @given(sizes, st.integers(1, 16), scales)
    def test_linear_object_size_tracks_share(self, s, c, k):
        profile = make_profile(s=s, c=1, r=1000.0)
        target = make_target(n=1, c=c, s=s * k)
        expected = 1000.0 * k / c
        assert estimate_object_size(
            profile, target, ReductionObjectClass.LINEAR
        ) == pytest.approx(expected, rel=1e-9)

    @given(times, st.integers(1, 16), scales)
    def test_global_reduction_classes_orthogonal(self, t_g, c, k):
        profile = make_profile(
            c=1, t_g=t_g, t_ro=0.0, t_compute=t_g + 1.0
        )
        target = make_target(n=1, c=c, s=profile.dataset_bytes * k)
        linear_constant = estimate_global_reduction_time(
            profile, target, GlobalReductionClass.LINEAR_CONSTANT
        )
        constant_linear = estimate_global_reduction_time(
            profile, target, GlobalReductionClass.CONSTANT_LINEAR
        )
        assert linear_constant == pytest.approx(t_g * c, rel=1e-9)
        assert constant_linear == pytest.approx(t_g * k, rel=1e-9)
