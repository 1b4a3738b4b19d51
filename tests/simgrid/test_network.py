"""Tests for links and the fitted communication cost model."""

import dataclasses

import numpy as np
import pytest

from repro.simgrid.errors import ConfigurationError
from repro.simgrid.network import (
    CommCostModel,
    LinkModel,
    fit_linear_cost,
)

from tests.conftest import small_cluster_spec


class TestLinkModel:
    def test_message_time(self):
        link = LinkModel(latency_s=0.001, bw=1e6)
        assert link.message_time(1e6) == pytest.approx(1.001)

    def test_stream_time_sums_messages(self):
        link = LinkModel(latency_s=0.001, bw=1e6)
        sizes = [1e5, 2e5]
        assert link.stream_time(sizes) == pytest.approx(
            sum(link.message_time(s) for s in sizes)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=-1, bw=1e6)
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=0, bw=0)
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=0, bw=1e6).message_time(-1)


class TestFitLinearCost:
    def test_recovers_exact_line(self):
        w_true, l_true = 2.5e-7, 1.2e-3
        sizes = [1e3, 1e4, 1e5, 1e6]
        times = [w_true * s + l_true for s in sizes]
        w, l = fit_linear_cost(sizes, times)
        assert w == pytest.approx(w_true, rel=1e-9)
        assert l == pytest.approx(l_true, rel=1e-9)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0], [1.0])
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0, 2.0], [1.0])


class TestCommCostModel:
    def test_fit_for_cluster_matches_interconnect(self):
        cluster = small_cluster_spec()
        model = CommCostModel.fit_for_cluster(cluster)
        assert model.w == pytest.approx(1.0 / cluster.intra_bw, rel=1e-6)
        assert model.l == pytest.approx(cluster.intra_latency_s, rel=1e-6)

    def test_fit_is_solved_once_per_distinct_cluster(self, monkeypatch):
        """Section 3.3.1's "calibrate once": equal clusters share a solve."""
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k)
        )
        # A cluster no other test fits, so the first call here is cold.
        odd = dataclasses.replace(small_cluster_spec(), intra_bw=2.0e7 + 1.0)
        twin = dataclasses.replace(small_cluster_spec(), intra_bw=2.0e7 + 1.0)
        first = CommCostModel.fit_for_cluster(odd)
        assert len(solves) == 1
        for cluster in (odd, twin, odd):
            again = CommCostModel.fit_for_cluster(cluster)
            assert (again.w.hex(), again.l.hex()) == (first.w.hex(), first.l.hex())
        assert len(solves) == 1
        other = dataclasses.replace(odd, intra_bw=2.0e7 + 2.0)
        assert CommCostModel.fit_for_cluster(other).w != first.w
        assert len(solves) == 2

    def test_shipped_clusters_keep_their_fitted_bits(self):
        """Every figure baseline downstream depends on these bits: the
        remembered fit is the unremembered solve, first call and tenth."""
        from repro.workloads.clusters import (
            opteron_infiniband_cluster,
            pentium_myrinet_cluster,
        )

        sizes = (1024.0, 8192.0, 65536.0, 524288.0)
        for make in (pentium_myrinet_cluster, opteron_infiniband_cluster):
            x = np.asarray(sizes)
            y = np.asarray([make().gather_message_time(size) for size in sizes])
            design = np.stack([x, np.ones_like(x)], axis=1)
            (w, l), *_ = np.linalg.lstsq(design, y, rcond=None)
            for _ in range(10):
                model = CommCostModel.fit_for_cluster(make())
                assert (model.w.hex(), model.l.hex()) == (
                    float(w).hex(), float(l).hex()
                )

    def test_message_time(self):
        model = CommCostModel(w=1e-7, l=1e-4)
        assert model.message_time(1e4) == pytest.approx(1e-3 + 1e-4)

    def test_gather_is_c_minus_one_messages(self):
        model = CommCostModel(w=1e-7, l=1e-4)
        assert model.gather_time(1, 1e4) == 0.0
        assert model.gather_time(5, 1e4) == pytest.approx(
            4 * model.message_time(1e4)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CommCostModel(w=-1e-7, l=0.0)
        with pytest.raises(ConfigurationError):
            CommCostModel(w=1e-7, l=1e-4).gather_time(0, 100.0)
        with pytest.raises(ConfigurationError):
            CommCostModel(w=1e-7, l=1e-4).message_time(-1.0)
