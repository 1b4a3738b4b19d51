"""Tests for the disk service models."""

import pytest

from repro.simgrid.disk import DiskModel, RepositoryDiskSystem
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import DiskSpec

from tests.conftest import small_cluster_spec


class TestDiskModel:
    def test_chunk_read_time(self):
        model = DiskModel(DiskSpec(seek_s=0.01, stream_bw=1e6), effective_bw=1e6)
        assert model.chunk_read_time(5e5) == pytest.approx(0.51)

    def test_batch_is_sum_of_chunks(self):
        model = DiskModel(DiskSpec(seek_s=0.01, stream_bw=1e6), effective_bw=1e6)
        sizes = [1e5, 2e5, 3e5]
        assert model.batch_read_time(sizes) == pytest.approx(
            sum(model.chunk_read_time(s) for s in sizes)
        )

    def test_contended_model_slower(self):
        spec = DiskSpec(seek_s=0.0, stream_bw=1e6)
        free = DiskModel(spec, effective_bw=1e6)
        contended = DiskModel(spec, effective_bw=5e5)
        assert contended.chunk_read_time(1e6) > free.chunk_read_time(1e6)

    def test_invalid_effective_bw(self):
        with pytest.raises(ConfigurationError):
            DiskModel(DiskSpec(seek_s=0.0, stream_bw=1e6), effective_bw=0.0)


class TestRepositoryDiskSystem:
    def test_retrieval_is_max_over_nodes(self, cluster):
        system = RepositoryDiskSystem(cluster, num_data_nodes=2)
        light = [1e4]
        heavy = [1e4] * 10
        times = [system.node_read_time(0, light), system.node_read_time(1, heavy)]
        assert max(times) == times[1]
        assert times[1] > times[0]

    def test_empty_batch_costs_nothing(self, cluster):
        system = RepositoryDiskSystem(cluster, num_data_nodes=2)
        assert system.node_read_time(0, []) == 0.0

    def test_node_startup_charged_once_per_batch(self, cluster):
        system = RepositoryDiskSystem(cluster, num_data_nodes=1)
        one = system.node_read_time(0, [1e4])
        two = system.node_read_time(0, [1e4, 1e4])
        per_chunk = two - one
        assert one == pytest.approx(per_chunk + cluster.node_startup_s)

    def test_contention_slows_wide_configurations(self):
        cluster = small_cluster_spec()
        narrow = RepositoryDiskSystem(cluster, num_data_nodes=2)
        wide = RepositoryDiskSystem(cluster, num_data_nodes=12)
        assert wide.per_node_effective_bw < narrow.per_node_effective_bw

    def test_node_index_out_of_range(self, cluster):
        system = RepositoryDiskSystem(cluster, num_data_nodes=2)
        with pytest.raises(ConfigurationError):
            system.node_read_time(2, [1e4])

    def test_too_many_data_nodes_rejected(self):
        cluster = small_cluster_spec(num_nodes=4)
        with pytest.raises(ConfigurationError):
            RepositoryDiskSystem(cluster, num_data_nodes=5)
