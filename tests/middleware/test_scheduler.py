"""Tests for run configurations."""

import pytest

from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError

from tests.conftest import small_cluster_spec


class TestRunConfig:
    def make(self, n=2, c=4, bw=1e6, nodes=16):
        cluster = small_cluster_spec(num_nodes=nodes)
        return RunConfig(
            storage_cluster=cluster,
            compute_cluster=cluster,
            data_nodes=n,
            compute_nodes=c,
            bandwidth=bw,
        )

    def test_label(self):
        assert self.make(8, 16).label == "8-16"

    def test_homogeneous(self):
        assert self.make().homogeneous
        other = small_cluster_spec(name="other")
        config = RunConfig(
            storage_cluster=small_cluster_spec(),
            compute_cluster=other,
            data_nodes=1,
            compute_nodes=1,
            bandwidth=1e6,
        )
        assert not config.homogeneous

    def test_m_ge_n_enforced(self):
        with pytest.raises(ConfigurationError):
            self.make(n=4, c=2)

    def test_equal_counts_allowed(self):
        assert self.make(n=4, c=4).label == "4-4"

    def test_cluster_capacity_enforced(self):
        with pytest.raises(ConfigurationError):
            self.make(n=2, c=32, nodes=16)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ConfigurationError):
            self.make(bw=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bandwidth_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            self.make(bw=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_remote_cache_bandwidth_rejected(self, bad):
        cluster = small_cluster_spec()
        with pytest.raises(ConfigurationError, match="remote cache bandwidth"):
            RunConfig(
                storage_cluster=cluster,
                compute_cluster=cluster,
                data_nodes=1,
                compute_nodes=1,
                bandwidth=1e6,
                remote_cache_bandwidth=bad,
            )

    def test_positive_node_counts_required(self):
        with pytest.raises(ConfigurationError):
            self.make(n=0, c=0)

    def test_with_nodes(self):
        config = self.make(2, 4).with_nodes(4, 8)
        assert (config.data_nodes, config.compute_nodes) == (4, 8)

    def test_with_bandwidth(self):
        assert self.make().with_bandwidth(5e5).bandwidth == 5e5

    def test_with_clusters(self):
        other = small_cluster_spec(name="other")
        config = self.make().with_clusters(other, other)
        assert config.storage_cluster.name == "other"
        assert config.compute_cluster.name == "other"
