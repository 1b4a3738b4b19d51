"""Tests for the data-server and compute-server timing models."""

import pytest

from repro.middleware.caching import CacheModel
from repro.middleware.chunks import assign_chunks
from repro.middleware.compute_server import ComputeServer
from repro.middleware.data_server import DataServer
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import DiskSpec, OpVector

from tests.conftest import make_tiny_points, small_cluster_spec


def make_config(n=2, c=4, bw=5e5):
    cluster = small_cluster_spec()
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=bw,
    )


class TestDataServer:
    def make(self, n=2, c=4, bw=5e5):
        config = make_config(n, c, bw)
        dataset = make_tiny_points()
        plan = assign_chunks(dataset.num_chunks, n, c)
        return DataServer(config, dataset, plan), config, dataset

    def test_retrieval_positive(self):
        server, _, _ = self.make()
        assert max(server.node_retrieval_times()) > 0.0

    def test_retrieval_shrinks_with_more_data_nodes(self):
        one, _, _ = self.make(n=1)
        four, _, _ = self.make(n=4)
        assert max(four.node_retrieval_times()) < max(one.node_retrieval_times())

    def test_communication_bandwidth_cap(self):
        fast, _, _ = self.make(bw=1e7)
        slow, _, _ = self.make(bw=1e5)
        assert max(slow.node_stream_times()) > max(fast.node_stream_times())

    def test_communication_capped_by_nic(self):
        config = make_config(bw=1e12)  # absurd bandwidth; NIC is the cap
        dataset = make_tiny_points()
        plan = assign_chunks(dataset.num_chunks, 2, 4)
        server = DataServer(config, dataset, plan)
        nic_bw = config.storage_cluster.node.nic.bw
        per_node_bytes = sum(
            dataset.chunk_nbytes(i) for i in plan.data_node_chunks[0]
        )
        assert max(server.node_stream_times()) >= per_node_bytes / nic_bw

    def test_per_node_chunk_sizes_align_with_plan(self):
        server, _, dataset = self.make()
        sizes = server.per_node_chunk_sizes
        assert len(sizes) == 2
        total = sum(sum(s) for s in sizes)
        assert total == pytest.approx(dataset.nbytes)

    def test_effective_disk_bw_reported(self):
        server, config, _ = self.make(n=2)
        assert server.effective_disk_bw() == config.storage_cluster.effective_disk_bw(2)

    def test_rejects_assignment_without_data_nodes(self):
        from repro.middleware.chunks import ChunkAssignment

        empty = ChunkAssignment(
            data_node_chunks=[], compute_node_chunks=[], compute_source=[]
        )
        with pytest.raises(ConfigurationError, match="at least one"):
            DataServer(make_config(), make_tiny_points(), empty)

    def test_link_factors_stretch_one_node_stream(self):
        server, _, _ = self.make()
        healthy = server.node_stream_times()
        degraded = server.node_stream_times([2.0, 1.0])
        assert degraded[0] == pytest.approx(2.0 * healthy[0])
        assert degraded[1] == healthy[1]
        with pytest.raises(ConfigurationError):
            server.node_stream_times([2.0])  # wrong length

    def test_refetch_cost_charges_startup_reads_and_stream(self):
        server, config, dataset = self.make()
        disk, network = server.refetch_cost([0, 2])
        spec = config.storage_cluster.node.disk
        expected_disk = config.storage_cluster.node_startup_s + sum(
            spec.read_time(dataset.chunk_nbytes(c), effective_bw=spec.stream_bw)
            for c in (0, 2)
        )
        assert disk == pytest.approx(expected_disk)
        assert network > 0.0
        assert server.refetch_cost([]) == (0.0, 0.0)
        _, slow_net = server.refetch_cost([0, 2], link_factor=2.0)
        assert slow_net == pytest.approx(2.0 * network)
        with pytest.raises(ConfigurationError):
            server.refetch_cost([0], link_factor=0.5)


class TestComputeServer:
    def test_compute_time_includes_pass_startup(self):
        config = make_config()
        server = ComputeServer(config, 0)
        empty = server.compute_time([], [[]])
        assert empty == pytest.approx(config.compute_cluster.compute_pass_startup_s)

    def test_compute_time_scales_with_ops(self):
        config = make_config()
        server = ComputeServer(config, 0)
        cpu = config.compute_cluster.node.cpu
        times = [cpu.compute_time(OpVector(flop=f)) for f in (1e6, 2e6)]
        small = server.compute_time(times, [[0]])
        large = server.compute_time(times, [[1]])
        assert large > small

    def test_dispatch_overhead_per_chunk(self):
        config = make_config()
        server = ComputeServer(config, 0)
        one = server.compute_time([0.0, 0.0], [[0]])
        two = server.compute_time([0.0, 0.0], [[0, 1]])
        assert two - one == pytest.approx(
            config.compute_cluster.chunk_dispatch_overhead_s
        )

    def test_receive_overhead_scales_with_saturation(self):
        saturated = ComputeServer(make_config(4, 4), 0)
        relaxed = ComputeServer(make_config(4, 16), 0)
        assert saturated.receive_overhead(10) == pytest.approx(
            4.0 * relaxed.receive_overhead(10)
        )

    def test_cache_round_trip_times(self):
        server = ComputeServer(make_config(), 0)
        sizes = [1e4, 2e4]
        assert server.cache_write_time(sizes) > 0.0
        # reads pay seeks, writes stream
        assert server.cache_read_time(sizes) > server.cache_write_time(sizes)


class TestCacheModel:
    def test_write_streams_without_seek(self):
        cache = CacheModel(DiskSpec(seek_s=0.01, stream_bw=1e6))
        assert cache.write_time([1e6]) == pytest.approx(1.0)

    def test_read_pays_seek_per_chunk(self):
        cache = CacheModel(DiskSpec(seek_s=0.01, stream_bw=1e6))
        assert cache.read_time([1e6, 1e6]) == pytest.approx(2.02)

    def test_negative_sizes_rejected(self):
        cache = CacheModel(DiskSpec(seek_s=0.01, stream_bw=1e6))
        with pytest.raises(ConfigurationError):
            cache.write_time([-1.0])
        with pytest.raises(ConfigurationError):
            cache.read_time([-1.0])
