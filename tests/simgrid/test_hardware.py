"""Tests for hardware specs and the operation cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import (
    CPUSpec,
    DiskSpec,
    NICSpec,
    OpCategory,
    OpVector,
)

from tests.conftest import small_cluster_spec

nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


class TestOpVector:
    def test_zero_identity(self):
        v = OpVector(flop=3, mem=2, branch=1)
        assert (v + OpVector.zero()) == v

    @given(nonneg, nonneg, nonneg, nonneg, nonneg, nonneg)
    def test_addition_componentwise(self, f1, m1, b1, f2, m2, b2):
        total = OpVector(f1, m1, b1) + OpVector(f2, m2, b2)
        assert total.flop == f1 + f2
        assert total.mem == m1 + m2
        assert total.branch == b1 + b2

    @given(nonneg, nonneg, nonneg, st.floats(min_value=0, max_value=1e6))
    def test_scalar_multiplication(self, f, m, b, k):
        v = OpVector(f, m, b) * k
        assert v.flop == f * k and v.mem == m * k and v.branch == b * k

    def test_rmul(self):
        assert (2 * OpVector(flop=1)).flop == 2.0

    def test_total(self):
        assert OpVector(1, 2, 3).total == 6.0

    def test_sum(self):
        vectors = [OpVector(flop=1), OpVector(mem=2), OpVector(branch=3)]
        total = OpVector.sum(vectors)
        assert (total.flop, total.mem, total.branch) == (1, 2, 3)

    def test_as_dict(self):
        assert OpVector(1, 2, 3).as_dict() == {"flop": 1, "mem": 2, "branch": 3}

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            OpVector(flop=-1)


class TestCPUSpec:
    def make(self, flop=1e8, mem=2e8, branch=5e7):
        return CPUSpec(
            name="cpu",
            rates={
                OpCategory.FLOP: flop,
                OpCategory.MEM: mem,
                OpCategory.BRANCH: branch,
            },
        )

    def test_compute_time(self):
        cpu = self.make()
        ops = OpVector(flop=1e8, mem=2e8, branch=5e7)
        assert cpu.compute_time(ops) == pytest.approx(3.0)

    def test_compute_time_is_additive(self):
        cpu = self.make()
        a, b = OpVector(flop=5e7), OpVector(mem=1e8, branch=1e7)
        assert cpu.compute_time(a + b) == pytest.approx(
            cpu.compute_time(a) + cpu.compute_time(b)
        )

    def test_missing_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CPUSpec(name="bad", rates={OpCategory.FLOP: 1e8})

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(mem=0.0)

    def test_speedup_depends_on_mix(self):
        """Two machines can rank differently for different op mixes — the
        effect behind the paper's per-application scaling factors."""
        slow = self.make()
        fast_branch = self.make(flop=2e8, mem=4e8, branch=5e8)
        for ops, speedup in ((OpVector(branch=1e8), 10.0), (OpVector(flop=1e8), 2.0)):
            ratio = slow.compute_time(ops) / fast_branch.compute_time(ops)
            assert ratio == pytest.approx(speedup)


class TestDiskSpec:
    def test_read_time(self):
        disk = DiskSpec(seek_s=0.01, stream_bw=1e6)
        assert disk.read_time(1e6) == pytest.approx(1.01)

    def test_contended_read_uses_lower_bandwidth(self):
        disk = DiskSpec(seek_s=0.0, stream_bw=1e6)
        assert disk.read_time(1e6, effective_bw=5e5) == pytest.approx(2.0)

    def test_contention_never_speeds_up(self):
        disk = DiskSpec(seek_s=0.0, stream_bw=1e6)
        assert disk.read_time(1e6, effective_bw=2e6) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiskSpec(seek_s=-1, stream_bw=1e6)
        with pytest.raises(ConfigurationError):
            DiskSpec(seek_s=0, stream_bw=0)
        with pytest.raises(ConfigurationError):
            DiskSpec(seek_s=0, stream_bw=1e6).read_time(-5)


class TestNICSpec:
    def test_send_time(self):
        nic = NICSpec(latency_s=0.001, bw=1e6)
        assert nic.send_time(1e6) == pytest.approx(1.001)

    def test_effective_bandwidth_cap(self):
        nic = NICSpec(latency_s=0.0, bw=1e7)
        assert nic.send_time(1e6, effective_bw=1e6) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NICSpec(latency_s=-1, bw=1e6)
        with pytest.raises(ConfigurationError):
            NICSpec(latency_s=0, bw=0)


class TestClusterSpec:
    def test_require_nodes(self):
        cluster = small_cluster_spec(num_nodes=4)
        cluster.require_nodes(4)
        with pytest.raises(ConfigurationError):
            cluster.require_nodes(5)
        with pytest.raises(ConfigurationError):
            cluster.require_nodes(0)

    def test_with_nodes(self):
        cluster = small_cluster_spec(num_nodes=4)
        assert cluster.with_nodes(8).num_nodes == 8
        assert cluster.num_nodes == 4  # original untouched

    def test_backplane_contention_kicks_in(self):
        cluster = small_cluster_spec()
        # disk stream is 1e6, backplane 6e6: contention above 6 nodes.
        assert cluster.effective_disk_bw(1) == pytest.approx(1e6)
        assert cluster.effective_disk_bw(6) == pytest.approx(1e6)
        assert cluster.effective_disk_bw(8) == pytest.approx(7.5e5)

    def test_effective_disk_bw_requires_positive_nodes(self):
        with pytest.raises(ConfigurationError):
            small_cluster_spec().effective_disk_bw(0)

    def test_gather_message_time(self):
        cluster = small_cluster_spec()
        expected = cluster.intra_latency_s + 1e4 / cluster.intra_bw
        assert cluster.gather_message_time(1e4) == pytest.approx(expected)
        with pytest.raises(ConfigurationError):
            cluster.gather_message_time(-1)

    def test_effective_cache_disk_falls_back_to_node_disk(self):
        cluster = small_cluster_spec()
        assert cluster.effective_cache_disk == cluster.cache_disk
        import dataclasses

        bare = dataclasses.replace(cluster, cache_disk=None)
        assert bare.effective_cache_disk == bare.node.disk

    def test_negative_overhead_rejected(self):
        import dataclasses

        with pytest.raises(ConfigurationError):
            dataclasses.replace(small_cluster_spec(), node_startup_s=-1.0)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteRejected:
    """NaN or infinite hardware numbers and op counts are configuration
    errors, never silently propagated into priced times."""

    @pytest.mark.parametrize("category", list(OpCategory))
    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_cpu_rate(self, category, rate):
        rates = {cat: 1e8 for cat in OpCategory}
        rates[category] = rate
        with pytest.raises(ConfigurationError, match=category.value):
            CPUSpec(name="cpu", rates=rates)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seek_s=NAN, stream_bw=1e6),
            dict(seek_s=INF, stream_bw=1e6),
            dict(seek_s=0.0, stream_bw=NAN),
            dict(seek_s=0.0, stream_bw=INF),
        ],
    )
    def test_disk(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            DiskSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(latency_s=NAN, bw=1e6),
            dict(latency_s=INF, bw=1e6),
            dict(latency_s=0.0, bw=NAN),
            dict(latency_s=0.0, bw=INF),
        ],
    )
    def test_nic(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            NICSpec(**kwargs)

    @pytest.mark.parametrize("name", ["flop", "mem", "branch"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_op_vector(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            OpVector(**{name: value})

    @pytest.mark.parametrize("size", [NAN, INF])
    def test_cache_model_chunk_sizes(self, size):
        from repro.middleware.caching import CacheModel

        cache = CacheModel(DiskSpec(seek_s=0.01, stream_bw=1e6))
        with pytest.raises(ConfigurationError, match="finite"):
            cache.read_time([size])
        with pytest.raises(ConfigurationError, match="finite"):
            cache.write_time([1e6, size])
