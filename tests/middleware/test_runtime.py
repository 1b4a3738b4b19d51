"""Tests for the FREERIDE-G execution engine."""

import pytest

from repro.middleware.chunks import assign_chunks
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec


def make_config(n=2, c=4, bw=5e5):
    cluster = small_cluster_spec()
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=bw,
    )


class TestFreerideGRuntime:
    def test_result_matches_direct_sum(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(SumApp(), dataset)
        assert run.result == pytest.approx(float(dataset.records.sum()), rel=1e-6)

    def test_result_invariant_across_configurations(self):
        dataset = make_tiny_points()
        results = []
        for n, c in [(1, 1), (1, 4), (2, 4), (4, 8), (8, 16)]:
            run = FreerideGRuntime(make_config(n, c)).execute(SumApp(), dataset)
            results.append(run.result)
        assert all(r == pytest.approx(results[0], rel=1e-6) for r in results)

    def test_breakdown_has_expected_pass_count(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(SumApp(passes=3), dataset)
        assert run.breakdown.num_passes == 3

    def test_deterministic_timing(self):
        dataset = make_tiny_points()
        t1 = FreerideGRuntime(make_config()).execute(SumApp(), dataset)
        t2 = FreerideGRuntime(make_config()).execute(SumApp(), dataset)
        assert t1.breakdown.total == t2.breakdown.total

    def test_disk_and_network_only_on_first_pass_when_cached(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(
            SumApp(passes=3, cache=True), dataset
        )
        passes = run.breakdown.passes
        assert passes[0].t_disk > 0 and passes[0].t_network > 0
        for later in passes[1:]:
            assert later.t_disk == 0.0 and later.t_network == 0.0
            assert later.t_cache > 0.0  # read from local cache instead

    def test_cache_read_time_is_computed_once_per_node(self, monkeypatch):
        """A node's cache re-read costs the same every cache-fed pass, so
        an execution prices it once per node, not once per pass."""
        from repro.middleware.caching import CacheModel

        calls = []
        read_time = CacheModel.read_time

        def counted(model, chunk_sizes):
            calls.append(tuple(chunk_sizes))
            return read_time(model, chunk_sizes)

        monkeypatch.setattr(CacheModel, "read_time", counted)
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config(c=4)).execute(
            SumApp(passes=5, cache=True), dataset
        )
        assert run.breakdown.num_passes == 5
        assert len(calls) == 4  # compute nodes, not 4 x (passes - 1)
        later = [p.t_cache for p in run.breakdown.passes[1:]]
        assert later == [later[0]] * 4

    def test_uncached_multi_pass_refetches(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(
            SumApp(passes=2, cache=False), dataset
        )
        passes = run.breakdown.passes
        assert passes[1].t_disk > 0 and passes[1].t_network > 0

    def test_caching_pays_write_on_first_pass(self):
        dataset = make_tiny_points()
        cached = FreerideGRuntime(make_config()).execute(
            SumApp(passes=2, cache=True), dataset
        )
        uncached = FreerideGRuntime(make_config()).execute(
            SumApp(passes=1, cache=False), dataset
        )
        assert cached.breakdown.passes[0].t_cache > 0.0
        assert uncached.breakdown.passes[0].t_cache == 0.0

    def test_single_node_has_no_gather_time(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config(1, 1)).execute(SumApp(), dataset)
        assert run.breakdown.t_ro == 0.0

    def test_gather_time_grows_with_compute_nodes(self):
        dataset = make_tiny_points()
        t4 = FreerideGRuntime(make_config(2, 4)).execute(SumApp(), dataset)
        t8 = FreerideGRuntime(make_config(2, 8)).execute(SumApp(), dataset)
        assert t8.breakdown.t_ro > t4.breakdown.t_ro

    def test_broadcast_adds_communication(self):
        dataset = make_tiny_points()
        plain = FreerideGRuntime(make_config(2, 4)).execute(SumApp(), dataset)
        bcast = FreerideGRuntime(make_config(2, 4)).execute(
            SumApp(broadcasts=True), dataset
        )
        assert bcast.breakdown.t_ro > plain.breakdown.t_ro
        assert bcast.breakdown.metadata["broadcast_nbytes"] == 64.0

    def test_metadata_recorded(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config(2, 4)).execute(SumApp(passes=2), dataset)
        meta = run.breakdown.metadata
        assert meta["app"] == "sum-app"
        assert meta["config"] == "2-4"
        assert meta["dataset_nbytes"] == dataset.nbytes
        assert meta["gather_rounds"] == 2
        assert meta["broadcasts_result"] is False

    def test_local_compute_faster_with_more_nodes(self):
        dataset = make_tiny_points()
        slow = FreerideGRuntime(make_config(2, 2)).execute(SumApp(), dataset)
        fast = FreerideGRuntime(make_config(2, 16)).execute(SumApp(), dataset)
        # The parallelizable share shrinks; the serialized gather grows, so
        # compare the local-reduction component, not t_compute as a whole.
        slow_local = slow.breakdown.t_compute - slow.breakdown.t_ro - slow.breakdown.t_g
        fast_local = fast.breakdown.t_compute - fast.breakdown.t_ro - fast.breakdown.t_g
        assert fast_local < slow_local

    def test_retrieval_faster_with_more_data_nodes(self):
        dataset = make_tiny_points()
        narrow = FreerideGRuntime(make_config(1, 4)).execute(SumApp(), dataset)
        wide = FreerideGRuntime(make_config(4, 4)).execute(SumApp(), dataset)
        assert wide.breakdown.t_disk < narrow.breakdown.t_disk

    def test_lower_bandwidth_slows_network(self):
        dataset = make_tiny_points()
        fast = FreerideGRuntime(make_config(bw=1e6)).execute(SumApp(), dataset)
        slow = FreerideGRuntime(make_config(bw=2e5)).execute(SumApp(), dataset)
        assert slow.breakdown.t_network > fast.breakdown.t_network

    def test_assignment_exposed(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config(2, 4)).execute(SumApp(), dataset)
        expected = assign_chunks(dataset.num_chunks, 2, 4)
        assert run.assignment.data_node_chunks == expected.data_node_chunks

    def test_nonterminating_app_rejected(self):
        class Forever(SumApp):
            def update(self, combined, ops):
                return True

        with pytest.raises(ConfigurationError):
            FreerideGRuntime(make_config()).execute(Forever(), make_tiny_points())

    def test_max_reduction_object_bytes_recorded(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(SumApp(), dataset)
        assert run.breakdown.max_reduction_object_bytes == 64.0

    def test_total_time_property(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config()).execute(SumApp(), dataset)
        assert run.total_time == run.breakdown.total
