"""Tests for cluster-of-SMPs execution (processes per node)."""

import numpy as np
import pytest

from repro.core.classes import ModelClasses
from repro.core.errors import relative_error
from repro.core.models import GlobalReductionModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.workloads.clusters import opteron_infiniband_cluster
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec


def make_config(n=2, c=4, ppn=1):
    cluster = small_cluster_spec()  # smp_width=4, contention=0.1
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=5e5,
        processes_per_node=ppn,
    )


class TestSMPConfig:
    def test_compute_slots(self):
        assert make_config(2, 4, ppn=2).compute_slots == 8
        assert make_config(2, 4, ppn=1).compute_slots == 4

    def test_ppn_bounded_by_cluster_width(self):
        with pytest.raises(ConfigurationError):
            make_config(2, 4, ppn=5)
        with pytest.raises(ConfigurationError):
            make_config(2, 4, ppn=0)

    def test_with_processes_per_node(self):
        config = make_config(2, 4).with_processes_per_node(2)
        assert config.processes_per_node == 2


class TestSMPExecution:
    def test_result_invariant_under_smp(self):
        dataset = make_tiny_points()
        results = []
        for ppn in (1, 2, 4):
            run = FreerideGRuntime(make_config(2, 4, ppn)).execute(
                SumApp(), dataset
            )
            results.append(run.result)
        assert all(
            r == pytest.approx(results[0], rel=1e-9) for r in results
        )

    def test_smp_speeds_up_compute(self):
        dataset = make_tiny_points(num_points=4096, num_chunks=64)
        single = FreerideGRuntime(make_config(2, 4, 1)).execute(
            SumApp(), dataset
        )
        double = FreerideGRuntime(make_config(2, 4, 2)).execute(
            SumApp(), dataset
        )
        assert double.breakdown.t_compute < single.breakdown.t_compute

    def test_contention_makes_speedup_sublinear(self):
        """4 nodes x 1 ppn beats 1 node x 4 ppn on kernel time (contention),
        while both beat 1 node x 1 ppn."""
        dataset = make_tiny_points(num_points=4096, num_chunks=64)

        def kernel_time(c, ppn):
            run = FreerideGRuntime(make_config(1, c, ppn)).execute(
                SumApp(), dataset
            )
            bd = run.breakdown
            return bd.t_compute - bd.t_ro - bd.t_g

        serial = kernel_time(1, 1)
        smp = kernel_time(1, 4)
        distributed = kernel_time(4, 1)
        assert smp < serial
        assert distributed < smp  # no memory-bus contention across nodes

    def test_gather_counts_nodes_not_threads(self):
        """Only one object per NODE is communicated: t_ro must not grow
        with processes per node."""
        dataset = make_tiny_points()
        single = FreerideGRuntime(make_config(2, 4, 1)).execute(
            SumApp(), dataset
        )
        quad = FreerideGRuntime(make_config(2, 4, 4)).execute(
            SumApp(), dataset
        )
        assert quad.breakdown.t_ro == pytest.approx(single.breakdown.t_ro)

    def test_metadata_records_ppn(self):
        dataset = make_tiny_points()
        run = FreerideGRuntime(make_config(2, 4, 2)).execute(SumApp(), dataset)
        assert run.breakdown.metadata["processes_per_node"] == 2


class TestSMPApplications:
    """The real applications run correctly on SMP nodes."""

    @pytest.mark.parametrize(
        "make_app, make_dataset",
        [
            (
                lambda: __import__(
                    "repro.apps.kmeans", fromlist=["KMeansClustering"]
                ).KMeansClustering(k=4, num_iterations=4, seed=5),
                lambda: __import__(
                    "repro.datagen.points", fromlist=["make_point_dataset"]
                ).make_point_dataset("smp-km", 1000, 3, 4, 16, seed=9),
            ),
            (
                lambda: __import__(
                    "repro.apps.knn", fromlist=["KNNSearch"]
                ).KNNSearch(k=4, num_queries=8, seed=9),
                lambda: __import__(
                    "repro.datagen.points", fromlist=["make_training_dataset"]
                ).make_training_dataset("smp-knn", 1000, 3, 4, 16, seed=9),
            ),
            (
                lambda: __import__(
                    "repro.apps.vortex", fromlist=["VortexDetection"]
                ).VortexDetection(),
                lambda: __import__(
                    "repro.datagen.cfd", fromlist=["make_field_dataset"]
                ).make_field_dataset("smp-vx", 96, 96, 16, num_vortices=3, seed=9),
            ),
        ],
    )
    def test_smp_matches_distributed_result(self, make_app, make_dataset):
        dataset = make_dataset()
        flat = FreerideGRuntime(make_config(1, 4, 1)).execute(
            make_app(), dataset
        )
        smp = FreerideGRuntime(make_config(1, 2, 2)).execute(
            make_app(), dataset
        )

        def canonical(result):
            if isinstance(result, dict) and "centers" in result:
                return np.round(result["centers"], 9).tolist()
            if isinstance(result, dict) and "neighbors_dists" in result:
                return np.round(result["neighbors_dists"], 9).tolist()
            if isinstance(result, dict) and "vortices" in result:
                return [
                    (v["ymin"], v["xmin"], v["area"]) for v in result["vortices"]
                ]
            raise AssertionError("unknown result shape")

        assert canonical(smp.result) == canonical(flat.result)


class TestSMPPrediction:
    def test_slots_drive_compute_prediction(self):
        from repro.core import (
            NoCommunicationModel,
            PredictionTarget,
            Profile,
        )

        dataset = make_tiny_points(num_points=4096, num_chunks=64)
        profile_config = make_config(1, 1, 1)
        run = FreerideGRuntime(profile_config).execute(SumApp(), dataset)
        profile = Profile.from_run(profile_config, run.breakdown)

        target_config = make_config(1, 2, 2)  # 4 slots
        target = PredictionTarget(
            config=target_config, dataset_bytes=dataset.nbytes
        )
        predicted = NoCommunicationModel().predict(profile, target)
        assert predicted.t_compute == pytest.approx(profile.t_compute / 4.0)


class TestOpteronSMPTradeoff:
    """EM at 350 MB on the dual-processor Opteron cluster, 2 data nodes:
    ``c`` nodes x 2 processes against ``2c`` nodes x 1 process."""

    SHAPES = [(4, 1), (8, 1), (4, 2), (16, 1), (8, 2)]

    @pytest.fixture(scope="class")
    def runs(self):
        spec = WORKLOADS["em"]
        dataset = spec.make_dataset("350 MB")
        opteron = opteron_infiniband_cluster()
        profile_config = make_run_config(1, 1, storage_cluster=opteron)
        profile_run = FreerideGRuntime(profile_config).execute(
            spec.make_app(), dataset
        )
        profile = Profile.from_run(profile_config, profile_run.breakdown)
        model = GlobalReductionModel(
            ModelClasses.parse(
                spec.natural_object_class, spec.natural_global_class
            )
        )
        runs = {}
        for nodes, ppn in self.SHAPES:
            config = make_run_config(
                2, nodes, storage_cluster=opteron
            ).with_processes_per_node(ppn)
            actual = FreerideGRuntime(config).execute(
                spec.make_app(), dataset
            ).breakdown
            target = PredictionTarget(
                config=config, dataset_bytes=dataset.nbytes
            )
            predicted = model.predict(profile, target).total
            runs[nodes, ppn] = (actual, relative_error(actual.total, predicted))
        return runs

    def test_smp_gathers_fewer_objects(self, runs):
        assert runs[4, 2][0].t_ro < runs[8, 1][0].t_ro
        assert runs[8, 2][0].t_ro < runs[16, 1][0].t_ro

    def test_smp_node_reduces_longer(self, runs):
        # One node handles both threads' chunks on a shared memory bus.
        assert runs[4, 2][0].t_compute > runs[8, 1][0].t_compute

    def test_slot_aware_prediction_within_10_percent(self, runs):
        errors = {shape: error for shape, (_, error) in runs.items()}
        assert all(error < 0.10 for error in errors.values()), errors
