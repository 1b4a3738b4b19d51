"""Shared fixtures: small clusters, datasets and configurations.

Everything here is deliberately tiny so the unit suite stays fast; the
paper-scale datasets are only touched by the integration tests and the
benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.middleware.dataset import ArrayDataset
from repro.middleware.scheduler import RunConfig
from repro.simgrid.hardware import (
    ClusterSpec,
    CPUSpec,
    DiskSpec,
    NICSpec,
    NodeSpec,
    OpCategory,
)


def small_cluster_spec(name: str = "test-cluster", num_nodes: int = 16) -> ClusterSpec:
    """A small, fully featured cluster used across the unit tests."""
    cpu = CPUSpec(
        name=f"{name}-cpu",
        rates={
            OpCategory.FLOP: 1.0e8,
            OpCategory.MEM: 2.0e8,
            OpCategory.BRANCH: 5.0e7,
        },
    )
    node = NodeSpec(
        cpu=cpu,
        disk=DiskSpec(seek_s=1.0e-4, stream_bw=1.0e6),
        nic=NICSpec(latency_s=5.0e-5, bw=1.0e7),
    )
    return ClusterSpec(
        name=name,
        node=node,
        num_nodes=num_nodes,
        repository_backplane_bw=6.0e6,
        node_startup_s=1.0e-4,
        compute_pass_startup_s=5.0e-5,
        chunk_dispatch_overhead_s=1.0e-5,
        chunk_receive_overhead_s=2.0e-5,
        intra_latency_s=1.0e-5,
        intra_bw=2.0e7,
        gather_deserialize_s=1.0e-5,
        cache_disk=DiskSpec(seek_s=2.0e-5, stream_bw=2.0e7),
        smp_width=4,
        smp_memory_contention=0.1,
    )


@pytest.fixture
def cluster() -> ClusterSpec:
    return small_cluster_spec()


@pytest.fixture
def run_config(cluster: ClusterSpec) -> RunConfig:
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=2,
        compute_nodes=4,
        bandwidth=5.0e5,
    )


def make_tiny_points(
    num_points: int = 640, num_dims: int = 3, num_chunks: int = 16, seed: int = 7
) -> ArrayDataset:
    """A tiny deterministic point dataset for middleware tests."""
    rng = np.random.default_rng(seed)
    records = rng.normal(size=(num_points, num_dims)).astype(np.float32)
    return ArrayDataset(
        name="tiny-points",
        records=records,
        num_chunks=num_chunks,
        meta={"kind": "points", "num_dims": num_dims},
    )


@pytest.fixture
def tiny_points() -> ArrayDataset:
    return make_tiny_points()


from repro.middleware.api import GeneralizedReduction


class SumApp(GeneralizedReduction):
    """Minimal test application: sums record coordinates over N passes.

    Charges one flop per element so compute time is deterministic and
    proportional to data volume.  Used by middleware and core tests.
    """

    name = "sum-app"
    broadcasts_result = False
    multi_pass_hint = False

    def __init__(self, passes: int = 1, broadcasts: bool = False, cache: bool = False):
        self.passes = passes
        self.broadcasts_result = broadcasts
        self.multi_pass_hint = cache
        self._done = 0
        self.total = None

    def begin(self, meta):
        self._done = 0
        self.total = None

    def make_local_object(self):
        return [0.0]

    def process_chunk(self, obj, payload, ops):
        obj[0] += float(np.sum(payload))
        ops.charge(flop=float(np.size(payload)))

    def object_nbytes(self, obj):
        return 64.0

    def combine(self, objs, ops):
        ops.charge(flop=float(len(objs)))
        return [sum(o[0] for o in objs)]

    def merge_local(self, objs, ops):
        ops.charge(flop=float(len(objs)))
        return [sum(o[0] for o in objs)]

    def broadcast_nbytes(self, combined):
        return 64.0

    def update(self, combined, ops):
        self.total = combined[0]
        self._done += 1
        ops.charge(flop=1.0)
        return self._done < self.passes

    def result(self):
        return self.total


@pytest.fixture
def kernel_calls(monkeypatch):
    """Chunk kernels run, per registered application name: one per
    ``process_chunk`` call, ``dataset.num_chunks`` per batched
    ``process_pass`` call."""
    from collections import Counter

    from repro.workloads.registry import WORKLOADS

    calls: Counter = Counter()
    for spec in WORKLOADS.values():
        cls = type(spec.make_app())
        original = cls.process_chunk

        def counted(self, obj, payload, ops, _original=original):
            calls[self.name] += 1
            _original(self, obj, payload, ops)

        monkeypatch.setattr(cls, "process_chunk", counted)
        batched = getattr(cls, "process_pass", None)
        if batched is not None:

            def counted_pass(self, dataset, _original=batched):
                calls[self.name] += dataset.num_chunks
                return _original(self, dataset)

            monkeypatch.setattr(cls, "process_pass", counted_pass)
    return calls
