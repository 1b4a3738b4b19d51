"""Tests for the paper's testbed cluster specs."""

import pytest

from repro.simgrid.hardware import OpCategory, OpVector
from repro.workloads.clusters import (
    DEFAULT_BANDWIDTH,
    HALF_LOW_BANDWIDTH,
    LOW_BANDWIDTH,
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)


class TestClusterSpecs:
    def test_names(self):
        assert pentium_myrinet_cluster().name == "pentium-myrinet"
        assert opteron_infiniband_cluster().name == "opteron-infiniband"

    def test_opteron_faster_everywhere(self):
        pentium = pentium_myrinet_cluster()
        opteron = opteron_infiniband_cluster()
        for cat in OpCategory:
            assert opteron.node.cpu.rates[cat] > pentium.node.cpu.rates[cat]
        assert opteron.node.disk.stream_bw > pentium.node.disk.stream_bw
        assert opteron.node.nic.bw > pentium.node.nic.bw

    def test_speedups_differ_by_op_mix(self):
        """The core requirement behind Section 5.4: the two clusters'
        relative speed depends on the application's operation mix."""
        pentium = pentium_myrinet_cluster().node.cpu
        opteron = opteron_infiniband_cluster().node.cpu
        branchy = OpVector(branch=1e9)
        floppy = OpVector(flop=1e9)
        branchy_speedup, floppy_speedup = (
            pentium.compute_time(ops) / opteron.compute_time(ops)
            for ops in (branchy, floppy)
        )
        assert branchy_speedup != pytest.approx(floppy_speedup, rel=0.05)
        assert branchy_speedup > floppy_speedup  # branches gained the most

    def test_pentium_backplane_contends_at_eight_nodes(self):
        pentium = pentium_myrinet_cluster()
        free = pentium.effective_disk_bw(4)
        contended = pentium.effective_disk_bw(8)
        assert free == pentium.node.disk.stream_bw
        assert contended < free

    def test_custom_node_count(self):
        assert pentium_myrinet_cluster(num_nodes=8).num_nodes == 8

    def test_bandwidth_constants_ordered(self):
        assert HALF_LOW_BANDWIDTH < LOW_BANDWIDTH < DEFAULT_BANDWIDTH
        assert HALF_LOW_BANDWIDTH == pytest.approx(LOW_BANDWIDTH / 2)
