"""Tests for the serial vs tree gather topologies."""

import pytest

from repro.core.errors import relative_error
from repro.core.models import NoCommunicationModel
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import GatherTopology, RunConfig
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec


def make_config(topology=GatherTopology.SERIAL, n=2, c=8):
    cluster = small_cluster_spec()
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=5e5,
        gather_topology=topology,
    )


class TestGatherTopology:
    def test_default_is_serial(self):
        assert make_config().gather_topology is GatherTopology.SERIAL

    def test_with_gather_topology_accepts_strings(self):
        config = make_config().with_gather_topology("tree")
        assert config.gather_topology is GatherTopology.TREE

    def test_result_identical_across_topologies(self):
        dataset = make_tiny_points()
        serial = FreerideGRuntime(make_config(GatherTopology.SERIAL)).execute(
            SumApp(passes=2), dataset
        )
        tree = FreerideGRuntime(make_config(GatherTopology.TREE)).execute(
            SumApp(passes=2), dataset
        )
        assert serial.result == pytest.approx(tree.result)

    def test_tree_gather_faster_at_scale(self):
        dataset = make_tiny_points()
        serial = FreerideGRuntime(make_config(GatherTopology.SERIAL, 2, 16)).execute(
            SumApp(), dataset
        )
        tree = FreerideGRuntime(make_config(GatherTopology.TREE, 2, 16)).execute(
            SumApp(), dataset
        )
        # 15 serial messages vs 4 parallel rounds
        assert tree.breakdown.t_ro < serial.breakdown.t_ro

    def test_single_node_unaffected(self):
        dataset = make_tiny_points()
        tree = FreerideGRuntime(make_config(GatherTopology.TREE, 1, 1)).execute(
            SumApp(), dataset
        )
        assert tree.breakdown.t_ro == 0.0

    def test_real_application_on_tree(self):
        """The vortex pipeline (merge_local + deferred join) must produce
        identical features under both gather topologies."""
        from repro.apps.vortex import VortexDetection
        from repro.datagen.cfd import make_field_dataset

        dataset = make_field_dataset(
            "tree-vx", ny=96, nx=96, num_chunks=16, num_vortices=3, seed=51
        )
        serial = FreerideGRuntime(make_config(GatherTopology.SERIAL, 2, 8)).execute(
            VortexDetection(), dataset
        )
        tree = FreerideGRuntime(make_config(GatherTopology.TREE, 2, 8)).execute(
            VortexDetection(), dataset
        )
        key = lambda r: [  # noqa: E731
            (v["ymin"], v["xmin"], v["area"]) for v in r["vortices"]
        ]
        assert key(serial.result) == key(tree.result)


class TestSerializedGatherDrivesTheModel:
    """FREERIDE-G serializes the gather at the master, which is why the
    paper's T_ro grows with c and the no-communication model degrades at
    16 nodes: k-means at 350 MB on 2 data nodes, both topologies."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = WORKLOADS["kmeans"]
        dataset = spec.make_dataset("350 MB")
        profile_config = make_run_config(1, 1)
        profile_run = FreerideGRuntime(profile_config).execute(
            spec.make_app(), dataset
        )
        profile = Profile.from_run(profile_config, profile_run.breakdown)
        model = NoCommunicationModel()
        runs = {}
        for c in (2, 16):
            config = make_run_config(2, c)
            target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
            predicted = model.predict(profile, target).total
            for topology in GatherTopology:
                actual = FreerideGRuntime(
                    config.with_gather_topology(topology)
                ).execute(spec.make_app(), dataset).breakdown
                runs[topology, c] = (
                    actual.t_ro, relative_error(actual.total, predicted)
                )
        return runs

    def test_serial_t_ro_grows_over_twice_as_fast_as_the_tree(self, runs):
        def growth(topology):
            return runs[topology, 16][0] / runs[topology, 2][0]

        assert growth(GatherTopology.SERIAL) > 2.0 * growth(GatherTopology.TREE)

    def test_tree_gather_removes_no_communication_error_at_16(self, runs):
        tree_error = runs[GatherTopology.TREE, 16][1]
        assert tree_error < runs[GatherTopology.SERIAL, 16][1]


class TestBroadcastAfterComputeNodeCrash:
    """The re-broadcast reaches only the survivors of a compute-node crash."""

    @pytest.mark.parametrize(
        "topology, healthy_rounds, survivor_rounds",
        [
            # ceil(log2 5) = 3 tree rounds, ceil(log2 4) = 2 after the crash.
            (GatherTopology.TREE, 3, 2),
            # A serial gather sends receivers - 1 messages: 4, then 3.
            (GatherTopology.SERIAL, 4, 3),
        ],
    )
    def test_rounds_count_the_survivors(
        self, topology, healthy_rounds, survivor_rounds
    ):
        from repro.apps.kmeans import KMeansClustering
        from repro.faults import ComputeNodeCrash, FaultInjector, FaultSchedule

        config = make_config(topology, n=2, c=5)
        dataset = make_tiny_points()

        def run(faults=None):
            app = KMeansClustering(k=4, num_iterations=3, seed=5)
            return FreerideGRuntime(config, faults=faults).execute(app, dataset)

        healthy = run().breakdown
        crashed = run(
            FaultInjector(FaultSchedule([ComputeNodeCrash(0, 4)]))
        ).breakdown
        bcast = crashed.metadata["broadcast_nbytes"]
        message = config.compute_cluster.gather_message_time(bcast)
        assert crashed.num_passes == healthy.num_passes == 3
        for before, after in zip(healthy.passes, crashed.passes):
            # Role-preserving recovery gathers the same objects, so only
            # the broadcast share of T_ro moves.
            gather = before.t_ro - healthy_rounds * message
            assert after.t_ro == pytest.approx(
                gather + survivor_rounds * message, rel=1e-12
            )
