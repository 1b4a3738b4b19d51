"""Tests for the application model classes and their estimators."""

import pytest

from repro.core.classes import (
    GlobalReductionClass,
    ModelClasses,
    ReductionObjectClass,
    estimate_global_reduction_time,
    estimate_object_size,
)
from repro.core.errors import relative_error
from repro.core.models import GlobalReductionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.runtime import FreerideGRuntime
from repro.simgrid.errors import ConfigurationError
from repro.workloads.configs import PAPER_CONFIG_GRID, make_run_config
from repro.workloads.registry import WORKLOADS

from tests.core.conftest import make_profile, make_target


class TestModelClasses:
    def test_parse(self):
        classes = ModelClasses.parse("constant", "linear-constant")
        assert classes.object_size is ReductionObjectClass.CONSTANT
        assert classes.global_reduction is GlobalReductionClass.LINEAR_CONSTANT

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            ModelClasses.parse("quadratic", "linear-constant")
        with pytest.raises(ConfigurationError):
            ModelClasses.parse("constant", "exponential")


class TestObjectSizeEstimation:
    def test_constant_class_returns_profile_size(self):
        profile = make_profile(r=768.0)
        target = make_target(n=4, c=16, s=8e6)
        size = estimate_object_size(profile, target, ReductionObjectClass.CONSTANT)
        assert size == 768.0

    def test_linear_class_scales_with_data_share(self):
        profile = make_profile(c=2, s=1e6, r=1000.0)
        target = make_target(n=2, c=8, s=2e6)
        # share_profile = 5e5, share_target = 2.5e5 -> half the object
        size = estimate_object_size(profile, target, ReductionObjectClass.LINEAR)
        assert size == pytest.approx(500.0)

    def test_linear_class_identity_on_profile_share(self):
        profile = make_profile(c=4, s=4e6, r=1000.0)
        target = make_target(n=2, c=8, s=8e6)  # same per-node share (1e6)
        size = estimate_object_size(profile, target, ReductionObjectClass.LINEAR)
        assert size == pytest.approx(1000.0)


class TestGlobalReductionEstimation:
    def test_linear_constant_scales_with_nodes(self):
        profile = make_profile(c=2, t_g=0.5)
        target = make_target(n=2, c=8, s=profile.dataset_bytes)
        t_g = estimate_global_reduction_time(
            profile, target, GlobalReductionClass.LINEAR_CONSTANT
        )
        assert t_g == pytest.approx(2.0)

    def test_linear_constant_ignores_dataset_size(self):
        profile = make_profile(c=2, t_g=0.5, s=1e6)
        target = make_target(n=2, c=2, s=9e6)
        t_g = estimate_global_reduction_time(
            profile, target, GlobalReductionClass.LINEAR_CONSTANT
        )
        assert t_g == pytest.approx(0.5)

    def test_constant_linear_scales_with_dataset(self):
        profile = make_profile(c=2, t_g=0.5, s=1e6)
        target = make_target(n=2, c=16, s=3e6)
        t_g = estimate_global_reduction_time(
            profile, target, GlobalReductionClass.CONSTANT_LINEAR
        )
        assert t_g == pytest.approx(1.5)


SWAPPED = {
    "constant": "linear",
    "linear": "constant",
    "linear-constant": "constant-linear",
    "constant-linear": "linear-constant",
}


def max_errors_correct_and_swapped(workload, size):
    """Worst global-reduction error over the paper grid, per class choice."""
    spec = WORKLOADS[workload]
    dataset = spec.make_dataset(size)
    profile_config = make_run_config(1, 1)
    profile_run = FreerideGRuntime(profile_config).execute(
        spec.make_app(), dataset
    )
    profile = Profile.from_run(profile_config, profile_run.breakdown)
    object_class = spec.natural_object_class
    global_class = spec.natural_global_class
    models = [
        GlobalReductionModel(ModelClasses.parse(object_class, global_class)),
        GlobalReductionModel(
            ModelClasses.parse(SWAPPED[object_class], SWAPPED[global_class])
        ),
    ]
    worst = [0.0, 0.0]
    for n, c in PAPER_CONFIG_GRID:
        config = make_run_config(n, c)
        actual = FreerideGRuntime(config).execute(spec.make_app(), dataset)
        target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
        for i, model in enumerate(models):
            error = relative_error(
                actual.breakdown.total, model.predict(profile, target).total
            )
            worst[i] = max(worst[i], error)
    return tuple(worst)


class TestClassMisassignment:
    """Sections 3.3.1-3.3.2: the two classes matter where the serialized
    terms do, so swapping them costs accuracy on the paper grid."""

    def test_swapped_classes_hurt_kmeans(self):
        correct, swapped = max_errors_correct_and_swapped("kmeans", "350 MB")
        assert swapped > correct

    def test_swapped_classes_do_not_help_vortex(self):
        correct, swapped = max_errors_correct_and_swapped("vortex", "710 MB")
        assert swapped >= correct
