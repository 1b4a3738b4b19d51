"""Tests for cross-cluster scaling factors and prediction."""

import dataclasses

import pytest

from repro.core.classes import ModelClasses
from repro.core.heterogeneous import (
    ComponentScalingFactors,
    CrossClusterPredictor,
    measure_scaling_factors,
)
from repro.core.models import GlobalReductionModel, NoCommunicationModel
from repro.core.profile import Profile
from repro.middleware.runtime import FreerideGRuntime
from repro.simgrid.errors import ConfigurationError
from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import small_cluster_spec
from tests.core.conftest import make_profile, make_target
from tests.integration.test_end_to_end import SMALL_SIZE


class TestComponentScalingFactors:
    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            ComponentScalingFactors(sd=0.0, sn=1.0, sc=1.0)


class TestMeasureScalingFactors:
    def test_single_app_ratios(self):
        a = make_profile(t_disk=2.0, t_network=4.0, t_compute=8.0, app="x")
        b = make_profile(t_disk=1.0, t_network=4.0, t_compute=2.0, app="x")
        factors = measure_scaling_factors([(a, b)])
        assert factors.sd == pytest.approx(0.5)
        assert factors.sn == pytest.approx(1.0)
        assert factors.sc == pytest.approx(0.25)

    def test_averaging_over_apps(self):
        pair1 = (
            make_profile(t_compute=8.0, app="a"),
            make_profile(t_compute=2.0, app="a"),
        )
        pair2 = (
            make_profile(t_compute=8.0, app="b"),
            make_profile(t_compute=4.0, app="b"),
        )
        factors = measure_scaling_factors([pair1, pair2])
        assert factors.sc == pytest.approx((0.25 + 0.5) / 2)
        assert set(factors.per_app) == {"a", "b"}

    def test_mismatched_configs_rejected(self):
        a = make_profile(c=1)
        b = make_profile(c=2)
        with pytest.raises(ConfigurationError):
            measure_scaling_factors([(a, b)])

    def test_mismatched_dataset_rejected(self):
        a = make_profile(s=1e6)
        b = make_profile(s=2e6)
        with pytest.raises(ConfigurationError):
            measure_scaling_factors([(a, b)])

    def test_zero_component_rejected(self):
        a = make_profile(t_disk=0.0)
        b = make_profile()
        with pytest.raises(ConfigurationError):
            measure_scaling_factors([(a, b)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_scaling_factors([])


class TestCrossClusterPredictor:
    def test_components_rescaled(self):
        profile = make_profile()
        other = small_cluster_spec(name="other-cluster")
        target = make_target(n=1, c=1, s=profile.dataset_bytes, cluster=other)
        factors = ComponentScalingFactors(sd=0.5, sn=1.0, sc=0.25)
        base = NoCommunicationModel()
        predictor = CrossClusterPredictor(base, factors)

        on_b = predictor.predict(profile, target)
        same_target = make_target(n=1, c=1, s=profile.dataset_bytes)
        on_a = base.predict(profile, same_target)

        assert on_b.t_disk == pytest.approx(0.5 * on_a.t_disk)
        assert on_b.t_network == pytest.approx(1.0 * on_a.t_network)
        assert on_b.t_compute == pytest.approx(0.25 * on_a.t_compute)

    def test_selective_application_for_mixed_deployments(self):
        """apply=('compute',) leaves disk and network untouched — the
        mixed case where only the compute side moves to new hardware."""
        profile = make_profile(t_ro=0.0, t_g=0.0)
        target = make_target(n=1, c=2, s=profile.dataset_bytes)
        factors = ComponentScalingFactors(sd=0.5, sn=0.5, sc=0.25)
        base = NoCommunicationModel()
        on_a = base.predict(profile, target)
        mixed = CrossClusterPredictor(
            base, factors, apply=("compute",)
        ).predict(profile, target)
        assert mixed.t_disk == pytest.approx(on_a.t_disk)
        assert mixed.t_network == pytest.approx(on_a.t_network)
        assert mixed.t_compute == pytest.approx(0.25 * on_a.t_compute)

    def test_apply_validation(self):
        factors = ComponentScalingFactors(sd=1.0, sn=1.0, sc=1.0)
        with pytest.raises(ConfigurationError):
            CrossClusterPredictor(NoCommunicationModel(), factors, apply=())
        with pytest.raises(ConfigurationError):
            CrossClusterPredictor(
                NoCommunicationModel(), factors, apply=("gpu",)
            )

    def test_base_prediction_uses_profile_clusters(self):
        """The intermediate prediction must run against cluster A hardware
        even when the target names cluster B (the target's node counts,
        size and bandwidth still apply)."""
        profile = make_profile(r=1000.0, rounds=1)
        slow_interconnect = small_cluster_spec(name="slow")
        slow_interconnect = dataclasses.replace(
            slow_interconnect, intra_latency_s=1.0  # absurdly slow
        )
        target = make_target(
            n=1, c=4, s=profile.dataset_bytes, cluster=slow_interconnect
        )
        factors = ComponentScalingFactors(sd=1.0, sn=1.0, sc=1.0)
        classes = ModelClasses.parse("constant", "linear-constant")
        predictor = CrossClusterPredictor(GlobalReductionModel(classes), factors)
        pred = predictor.predict(profile, target)
        # If the gather were fitted on the target's (absurd) interconnect,
        # T_ro would be ~3 seconds; on the profile's cluster it is tiny.
        assert pred.t_ro < 0.01

    def test_target_shape_beyond_the_profile_cluster(self):
        """Targets wider (2 processes per node) or larger (8 nodes) than
        the 4-node, SMP-width-1 Pentium profile cluster are predicted on
        its comm-model fit; A's shape does not refuse them."""
        profile = make_profile(n=2, c=4, cluster=pentium_myrinet_cluster(4))
        target = make_target(n=2, c=4, cluster=opteron_infiniband_cluster())
        smp = dataclasses.replace(
            target, config=target.config.with_processes_per_node(2)
        )
        larger = dataclasses.replace(target, config=target.config.with_nodes(2, 8))
        factors = ComponentScalingFactors(sd=0.5, sn=0.5, sc=0.25)
        classes = ModelClasses.parse("constant", "linear-constant")
        predictor = CrossClusterPredictor(GlobalReductionModel(classes), factors)
        base, two, eight = (
            predictor.predict(profile, t) for t in (target, smp, larger)
        )
        assert (two.t_disk, two.t_network) == (base.t_disk, base.t_network)
        assert two.t_ro == base.t_ro  # one object per node either way
        assert two.t_compute < base.t_compute  # twice the slots
        assert eight.t_ro > base.t_ro  # more objects gathered


class TestMeasuredComputeFactors:
    """Section 5.4: compute scaling factors "did vary considerably across
    applications, ranging from 0.233 for kNN to 0.370 for Vortex".  Every
    application on 2-4, Pentium/Myrinet -> Opteron/InfiniBand."""

    @pytest.fixture(scope="class")
    def sc(self):
        pairs = []
        for name, spec in sorted(WORKLOADS.items()):
            dataset = spec.make_dataset(SMALL_SIZE[name])
            profiles = []
            for cluster in (pentium_myrinet_cluster(), opteron_infiniband_cluster()):
                config = make_run_config(2, 4, storage_cluster=cluster)
                run = FreerideGRuntime(config).execute(spec.make_app(), dataset)
                profiles.append(Profile.from_run(config, run.breakdown))
            pairs.append(tuple(profiles))
        factors = measure_scaling_factors(pairs)
        return {app: sc for app, (_, _, sc) in factors.per_app.items()}

    def test_knn_or_defect_scales_best(self, sc):
        assert min(sc, key=sc.get) in {"knn", "defect"}

    def test_factors_spread_over_0_05(self, sc):
        assert max(sc.values()) - min(sc.values()) > 0.05

    def test_every_app_speeds_up(self, sc):
        assert all(factor < 1.0 for factor in sc.values()), sc
