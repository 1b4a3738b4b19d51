"""Tests for the profile artefact."""

import pytest

from repro.core.profile import Profile
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec
from tests.core.conftest import make_profile


class TestProfileValidation:
    def test_total_and_label(self):
        profile = make_profile(n=2, c=4)
        assert profile.total == pytest.approx(7.0)
        assert profile.label == "2-4"

    def test_scalable_compute(self):
        profile = make_profile(t_compute=4.0, t_ro=0.5, t_g=0.25)
        assert profile.scalable_compute == pytest.approx(3.25)

    def test_serialized_parts_cannot_exceed_compute(self):
        with pytest.raises(ConfigurationError):
            make_profile(t_compute=1.0, t_ro=0.8, t_g=0.5)

    def test_negative_components_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(t_disk=-1.0)

    def test_nonpositive_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(s=0.0)

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(n=0)


class TestProfileFromRun:
    def test_round_trip_from_middleware(self):
        cluster = small_cluster_spec()
        config = RunConfig(
            storage_cluster=cluster,
            compute_cluster=cluster,
            data_nodes=2,
            compute_nodes=4,
            bandwidth=5e5,
        )
        dataset = make_tiny_points()
        run = FreerideGRuntime(config).execute(SumApp(passes=2), dataset)
        profile = Profile.from_run(config, run.breakdown)
        assert profile.app == "sum-app"
        assert profile.data_nodes == 2
        assert profile.compute_nodes == 4
        assert profile.dataset_bytes == dataset.nbytes
        assert profile.t_disk == pytest.approx(run.breakdown.t_disk)
        assert profile.t_compute == pytest.approx(run.breakdown.t_compute)
        assert profile.t_ro == pytest.approx(run.breakdown.t_ro)
        assert profile.gather_rounds == 2
        assert profile.total == pytest.approx(run.breakdown.total)
