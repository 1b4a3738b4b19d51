"""Numerical robustness tests for the EM implementation."""

import numpy as np
import pytest

from repro.apps.em import EMClustering
from repro.datagen.points import make_point_dataset
from repro.simgrid.errors import ConfigurationError

from tests.apps.conftest import execute


class TestEMNumerics:
    def test_degenerate_data_stays_positive_definite(self):
        """Points lying exactly on a plane would make covariances
        singular; the regularization floor must keep EM running."""
        rng = np.random.default_rng(5)
        points = rng.normal(size=(600, 3)).astype(np.float32)
        points[:, 2] = 1.0  # zero variance in the third dimension
        from repro.middleware.dataset import ArrayDataset

        dataset = ArrayDataset(
            "flat", points, num_chunks=16,
            meta={"num_dims": 3, "init_sample": points[:64].astype(np.float64)},
        )
        app = EMClustering(k=2, num_iterations=3, seed=11)
        run = execute(app, dataset, 1, 2)
        for cov in run.result["covariances"]:
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_responsibilities_sum_to_one(self):
        dataset = make_point_dataset("em-resp", 500, 3, 3, 16, seed=13)
        app = EMClustering(k=3, num_iterations=1, seed=7)
        app.begin(dict(dataset.meta))
        resp, log_evidence, _ = app._responsibilities(
            dataset.records[:100].astype(np.float64)
        )
        np.testing.assert_allclose(resp.sum(axis=0), np.ones(100), atol=1e-12)
        assert np.all(np.isfinite(log_evidence))

    def test_extreme_points_do_not_overflow(self):
        app = EMClustering(k=2, num_iterations=1, seed=7)
        app.begin({"num_dims": 2})
        far = np.full((10, 2), 1e3)
        resp, log_evidence, _ = app._responsibilities(far)
        assert np.all(np.isfinite(resp))
        assert np.all(np.isfinite(log_evidence))

    def test_lost_positive_definiteness_detected(self):
        app = EMClustering(k=1, num_iterations=1, seed=7)
        app.begin({"num_dims": 2})
        app.covs = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # indefinite
        with pytest.raises(ConfigurationError):
            app._refresh_precisions()

    def test_single_component(self):
        dataset = make_point_dataset("em-one", 400, 2, 1, 16, seed=17)
        app = EMClustering(k=1, num_iterations=2, seed=7)
        run = execute(app, dataset, 1, 2)
        assert run.result["weights"][0] == pytest.approx(1.0)
