"""The broker event loop: accounting, admission, and scheduling properties."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import BrokerJob, GridBroker, parse_workload_document
from repro.broker.engine import ActualRun
from repro.broker.report import BrokerReport, _run_to_dict
from repro.core.selection import SelectionCandidate, SelectionOutcome
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import pentium_myrinet_cluster
from repro.workloads.traces import TraceWorkload

from tests.broker.conftest import small_grid


class TestConstruction:
    def test_needs_compute_and_repository_sites(self):
        t = GridTopology()
        t.add_site("r", SiteKind.REPOSITORY, pentium_myrinet_cluster())
        with pytest.raises(ConfigurationError):
            GridBroker(t, [(1, 2)])

    def test_needs_allocations(self, grid):
        with pytest.raises(ConfigurationError):
            GridBroker(grid, [])

    def test_run_needs_jobs(self, broker):
        with pytest.raises(ConfigurationError):
            broker.run([])


class TestColdCacheFill:
    def test_kernels_run_once_per_dataset_key(self, kernel_calls):
        """However many candidate configurations the cold cache fill
        prices, each (dataset key, pass, chunk) kernel runs once."""
        broker = GridBroker(small_grid(), [(1, 2), (2, 4), (4, 8)])
        jobs = [
            BrokerJob(
                job_id=f"j{i}", workload=name, size="350 MB", arrival=0.01 * i
            )
            for i, name in enumerate(["knn", "kmeans", "knn", "kmeans"])
        ]
        run = broker.run(jobs, "min-completion")
        assert len(run.placements) == len(jobs)
        assert len(broker._exec_cache) > len(broker._book) == 2
        # 96 chunks each: kNN is one pass, k-means ten.
        assert dict(kernel_calls) == {"knn": 96, "kmeans": 960}
        broker.run(jobs, "min-completion")
        assert dict(kernel_calls) == {"knn": 96, "kmeans": 960}

    def test_default_size_and_its_label_are_one_dataset(
        self, kernel_calls, tmp_path
    ):
        """``kmeans`` and ``kmeans@1.4 GB`` name one dataset: one dataset,
        one kernel trace (352 chunks, ten passes), and the report bytes a
        broker keying the two spellings apart gave (pinned from one)."""
        broker = GridBroker(small_grid(), [(1, 2), (2, 4)])
        jobs = [
            BrokerJob(job_id="bare", workload="kmeans"),
            BrokerJob(
                job_id="sized", workload="kmeans", size="1.4 GB", arrival=0.01
            ),
        ]
        run = broker.run(jobs, "min-completion")
        assert len(broker._book) == 1
        assert dict(kernel_calls) == {"kmeans": 3520}
        path = BrokerReport(name="one-dataset", runs=(run,)).save(
            tmp_path / "report.json"
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dab2328766f96a69f186747081c94c7c85624dc0ce9a62119380263b6eecd20f"
        )


class TestEventLoop:
    def test_every_job_placed_exactly_once(self, broker):
        jobs = [
            BrokerJob(job_id=f"j{i}", workload="kmeans", arrival=0.02 * i)
            for i in range(6)
        ]
        run = broker.run(jobs, "min-completion")
        assert sorted(p.job_id for p in run.placements) == sorted(
            j.job_id for j in jobs
        )
        assert run.rejections == ()

    def test_wait_realized_when_grid_saturated(self, broker):
        # One-node compute site: the second job must wait for the first.
        t = GridTopology()
        t.add_site(
            "repo", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=2)
        )
        t.add_site(
            "hpc", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=1)
        )
        t.connect("repo", "hpc", bw=2.0e6)
        tight = GridBroker(t, [(1, 1)])
        jobs = [
            BrokerJob(job_id="j0", workload="kmeans", arrival=0.0),
            BrokerJob(job_id="j1", workload="kmeans", arrival=0.0),
        ]
        run = tight.run(jobs, "min-completion")
        by_id = {p.job_id: p for p in run.placements}
        assert by_id["j0"].wait == 0.0
        assert by_id["j1"].start == pytest.approx(by_id["j0"].end)
        assert by_id["j1"].wait > 0.0

    def test_priority_orders_the_queue(self, broker):
        # Saturate the grid with a job at t=0; two more arrive while it
        # runs — the higher-priority one must start first despite its
        # later arrival.
        t = GridTopology()
        t.add_site(
            "repo", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=2)
        )
        t.add_site(
            "hpc", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=1)
        )
        t.connect("repo", "hpc", bw=2.0e6)
        tight = GridBroker(t, [(1, 1)])
        jobs = [
            BrokerJob(job_id="head", workload="kmeans", arrival=0.0),
            BrokerJob(job_id="low", workload="kmeans", arrival=0.01),
            BrokerJob(
                job_id="high", workload="kmeans", arrival=0.02, priority=5
            ),
        ]
        run = tight.run(jobs, "min-completion")
        by_id = {p.job_id: p for p in run.placements}
        assert by_id["high"].start < by_id["low"].start

    def test_infeasible_job_rejected_with_selector_reasons(self, broker):
        # An allocation grid no site can satisfy at full capacity.
        t = small_grid()
        starved = GridBroker(t, [(32, 64)])
        run = starved.run(
            [BrokerJob(job_id="j0", workload="kmeans")], "min-completion"
        )
        assert run.placements == ()
        (rejection,) = run.rejections
        assert rejection.code == "no-feasible-configuration"
        # the reason carries the selector's per-candidate explanations
        assert "16 nodes, 32 requested" in rejection.reason

    def test_unknown_workload_raises(self, broker):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            broker.run(
                [BrokerJob(job_id="j0", workload="sorting")], "min-completion"
            )

    def test_deadline_admission_rejects_at_arrival(self, broker):
        baseline = broker.baseline_estimate("kmeans")
        jobs = [
            BrokerJob(
                job_id="hopeless",
                workload="kmeans",
                arrival=0.0,
                deadline=baseline * 0.01,
            )
        ]
        run = broker.run(jobs, "deadline-aware")
        (rejection,) = run.rejections
        assert rejection.code == "deadline-unmeetable"
        assert run.deadline_miss_rate == 1.0

    def test_error_series_in_completion_order(self, broker):
        jobs = [
            BrokerJob(job_id=f"j{i}", workload="kmeans", arrival=0.01 * i)
            for i in range(4)
        ]
        run = broker.run(jobs, "min-completion")
        ends = {p.job_id: p.end for p in run.placements}
        series_ids = [job_id for job_id, _ in run.error_series]
        assert series_ids == sorted(series_ids, key=lambda j: ends[j])

    def test_calibration_factors_only_when_calibrated(self, broker):
        jobs = [
            BrokerJob(job_id=f"j{i}", workload="kmeans", arrival=0.0)
            for i in range(3)
        ]
        assert broker.run(jobs, "min-completion").calibration_factors
        off = broker.run(jobs, "min-completion", calibrate=False)
        assert off.calibration_factors == {}

    def test_duplicate_job_ids_are_refused(self, broker):
        # A trace artifact without a fingerprint loads whatever jobs it
        # lists; two jobs under one id would share one resume state.
        trace = TraceWorkload.from_dict(
            {
                "name": "dup",
                "jobs": [
                    {"id": "a", "workload": "kmeans", "arrival": 0.0},
                    {"id": "a", "workload": "kmeans", "arrival": 0.5},
                ],
            }
        )
        with pytest.raises(ConfigurationError, match="duplicate job id 'a'"):
            broker.run(list(trace.jobs), "min-completion")

    def test_execution_cache_reused(self, broker):
        job = BrokerJob(job_id="j0", workload="kmeans")
        broker.run([job], "min-completion")
        cached = dict(broker._exec_cache)
        broker.run([job], "min-completion")
        assert broker._exec_cache == cached


class TestFeasibilityScan:
    @pytest.mark.parametrize(
        "compute_nodes,expected_site",
        [(2, "repo"), (3, "hpc")],
        ids=["sum-fits", "sum-exceeds-free"],
    )
    def test_same_site_candidate_needs_both_node_sets(
        self, compute_nodes, expected_site
    ):
        """A candidate whose replica and compute site coincide draws both
        node sets from the one pool: 2 + 2 nodes fit a 4-node site, 2 + 3
        do not, though either set alone would."""
        t = GridTopology()
        t.add_site(
            "repo", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=4)
        )
        t.add_site(
            "hpc", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=1)
        )
        t.connect("repo", "hpc", bw=2.0e6)
        broker = GridBroker(t, [(1, 1)])
        job = BrokerJob(job_id="j0", workload="kmeans", size="350 MB")
        key = broker._key(job)
        (remote,) = broker._selection(key, job).candidates
        # Predicted twice as fast, so min-completion takes the co-located
        # candidate whenever the feasibility scan lets it through.
        local = SelectionCandidate(
            replica_site="repo",
            compute_site="repo",
            data_nodes=2,
            compute_nodes=compute_nodes,
            bandwidth=remote.bandwidth,
            prediction=remote.prediction.scaled(0.5, 0.5, 0.5),
        )
        broker._selections[key] = SelectionOutcome(
            candidates=(local, remote)
        )
        (placement,) = broker.run([job], "min-completion").placements
        assert placement.compute_site == expected_site


class TestFromDocument:
    def test_document_round_trip(self):
        doc = parse_workload_document(
            {
                "name": "doc-grid",
                "allocations": [[1, 2]],
                "sites": [
                    {
                        "name": "repo",
                        "kind": "repository",
                        "cluster": "pentium-myrinet",
                        "nodes": 8,
                    },
                    {
                        "name": "hpc",
                        "kind": "compute",
                        "cluster": "pentium-myrinet",
                        "nodes": 8,
                    },
                ],
                "links": [{"a": "repo", "b": "hpc", "bw": 2.0e6}],
                "jobs": [{"id": "j0", "workload": "kmeans"}],
            }
        )
        broker = GridBroker.from_document(doc)
        run = broker.run(broker.resolve_jobs(doc), "min-completion")
        assert len(run.placements) == 1


# ----------------------------------------------------------------------
# Property: any seeded stream schedules every admitted job exactly once,
# per-node reservation windows never overlap, and replay is bit-identical.
# ----------------------------------------------------------------------

_WORKLOADS = ("kmeans", "knn", "vortex")

_job_strategy = st.builds(
    lambda i, workload, arrival, priority, slack: BrokerJob(
        job_id=f"j{i:03d}",
        workload=workload,
        arrival=round(arrival, 4),
        priority=priority,
        deadline=(
            round(arrival + slack, 4) if slack is not None else None
        ),
    ),
    i=st.integers(0, 999),
    workload=st.sampled_from(_WORKLOADS),
    arrival=st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    priority=st.integers(0, 2),
    slack=st.one_of(
        st.none(),
        st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False),
    ),
)

# Module-level broker shared across hypothesis examples: its caches are
# append-only and runs are independent, so examples stay O(event loop).
_PROPERTY_BROKER = GridBroker(small_grid(), [(1, 2), (2, 4)])


@given(
    jobs=st.lists(
        _job_strategy, min_size=1, max_size=10, unique_by=lambda j: j.job_id
    ),
    policy=st.sampled_from(["min-completion", "deadline-aware", "round-robin"]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stream_scheduling_properties(jobs, policy):
    broker = _PROPERTY_BROKER
    run = broker.run(jobs, policy)

    # Every job is accounted for exactly once: placed xor rejected.
    placed = [p.job_id for p in run.placements]
    rejected = [r.job_id for r in run.rejections]
    assert sorted(placed + rejected) == sorted(j.job_id for j in jobs)
    assert len(set(placed)) == len(placed)

    # No reservation window overlaps any other on the same node.
    windows = broker.last_ledger.all_windows()
    for a_index, a in enumerate(windows):
        for b in windows[a_index + 1 :]:
            assert not a.overlaps(b), f"{a} overlaps {b}"

    # Placements start no earlier than arrival and end after start.
    for p in run.placements:
        assert p.start >= p.arrival
        assert p.end > p.start

    # Replay: a fresh broker over the same stream is bit-identical.
    replay = GridBroker(small_grid(), [(1, 2), (2, 4)]).run(jobs, policy)
    assert json.dumps(_run_to_dict(run), sort_keys=True) == json.dumps(
        _run_to_dict(replay), sort_keys=True
    )


class TestActualRun:
    def test_total_is_component_sum(self):
        run = ActualRun(t_disk=1.0, t_network=2.0, t_compute=3.0)
        assert run.total == 6.0
        assert run.components == (1.0, 2.0, 3.0)
