"""Runtime-level recovery semantics, on a tiny deterministic workload."""

import pytest

from repro.errors import RecoveryExhaustedError
from repro.faults import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
    RetryPolicy,
    SlowNode,
)
from repro.middleware.runtime import FreerideGRuntime
from tests.conftest import SumApp, make_tiny_points


def run(run_config, schedule=None, passes=1, cache=False, **injector_kwargs):
    faults = (
        FaultInjector(schedule, **injector_kwargs)
        if schedule is not None
        else None
    )
    return FreerideGRuntime(run_config, faults=faults).execute(
        SumApp(passes=passes, cache=cache), make_tiny_points()
    )


class TestFaultFreeIdentity:
    def test_empty_schedule_changes_nothing(self, run_config):
        baseline = run(run_config, passes=3, cache=True)
        empty = run(run_config, FaultSchedule(), passes=3, cache=True)
        assert empty.breakdown.passes == baseline.breakdown.passes
        assert empty.result == baseline.result
        assert empty.breakdown.fault_events == []
        for a, b in zip(empty.breakdown.passes, baseline.breakdown.passes):
            assert a.total == b.total

    def test_no_injector_records_no_fault_metadata(self, run_config):
        baseline = run(run_config)
        assert "fault_schedule_size" not in baseline.breakdown.metadata
        assert baseline.breakdown.t_ckpt == 0.0


class TestTransientRetries:
    def test_retries_charged_into_t_disk_only(self, run_config):
        baseline = run(run_config)
        faulted = run(
            run_config,
            FaultSchedule([ChunkReadError(failures={0: 2}, data_node=1)]),
        )
        assert faulted.breakdown.t_disk > baseline.breakdown.t_disk
        assert faulted.breakdown.t_network == baseline.breakdown.t_network
        assert faulted.breakdown.t_compute == baseline.breakdown.t_compute
        assert faulted.result == baseline.result
        (event,) = faulted.breakdown.fault_events
        assert event["kind"] == "chunk-read-retries"
        assert event["data_node"] == 1
        assert event["failed_attempts"] == 2

    def test_budget_exhaustion_is_fatal(self, run_config):
        schedule = FaultSchedule([ChunkReadError(failures={0: 5})])
        with pytest.raises(RecoveryExhaustedError):
            run(run_config, schedule, policy=RetryPolicy(max_attempts=3))

    def test_rate_storm_survives_under_capped_draws(self, run_config):
        baseline = run(run_config)
        faulted = run(run_config, FaultSchedule([ChunkReadError(rate=0.9)]))
        assert faulted.result == baseline.result
        assert faulted.breakdown.t_disk > baseline.breakdown.t_disk


class TestDataNodeFailover:
    def test_crash_charges_refetch_and_names_the_replica(self, run_config):
        baseline = run(run_config)
        faulted = run(
            run_config,
            FaultSchedule([DataNodeCrash(0, 1, at_fraction=0.5)]),
            replica_sites=["backup-repo"],
        )
        assert faulted.result == baseline.result
        assert faulted.breakdown.t_disk > baseline.breakdown.t_disk
        assert faulted.breakdown.t_network > baseline.breakdown.t_network
        (event,) = faulted.breakdown.fault_events
        assert event["kind"] == "data-node-failover"
        assert event["replica_site"] == "backup-repo"
        assert event["unshipped_chunks"] == 4  # half of node 1's 8 chunks

    def test_no_replica_left_is_fatal(self, run_config):
        schedule = FaultSchedule([DataNodeCrash(0, 0)])
        with pytest.raises(RecoveryExhaustedError):
            run(run_config, schedule, replica_sites=[])

    def test_crash_in_cache_fed_pass_costs_nothing(self, run_config):
        baseline = run(run_config, FaultSchedule(), passes=2, cache=True)
        faulted = run(
            run_config,
            FaultSchedule([DataNodeCrash(1, 0)]),  # pass 1 is cache-fed
            passes=2,
            cache=True,
        )
        assert faulted.breakdown.total == baseline.breakdown.total
        (event,) = faulted.breakdown.fault_events
        assert event["kind"] == "data-node-crash-idle"


class TestComputeNodeRecovery:
    def test_crash_restarts_with_checkpoint_and_survivors(self, run_config):
        baseline = run(run_config, passes=3, cache=True)
        faulted = run(
            run_config,
            FaultSchedule([ComputeNodeCrash(1, 2, at_fraction=0.4)]),
            passes=3,
            cache=True,
        )
        assert faulted.result == baseline.result
        assert faulted.breakdown.t_ckpt > 0.0
        events = [
            e
            for e in faulted.breakdown.fault_events
            if e["kind"] == "compute-node-recovery"
        ]
        assert len(events) == 1
        assert events[0]["compute_node"] == 2
        assert events[0]["survivors"] == 3
        assert events[0]["t_lost_work"] > 0.0
        assert events[0]["t_restore"] > 0.0  # pass-0 checkpoint existed
        # lost work + doubled-up role slow the compute component
        assert faulted.breakdown.t_compute > baseline.breakdown.t_compute

    def test_checkpoints_can_be_disabled_explicitly(self, run_config):
        faulted = run(
            run_config,
            FaultSchedule(
                [ComputeNodeCrash(0, 1)], checkpoints=False
            ),
        )
        assert faulted.breakdown.t_ckpt == 0.0

    def test_crashing_every_compute_node_is_rejected(self, run_config):
        schedule = FaultSchedule(
            [ComputeNodeCrash(0, j) for j in range(4)]
        )
        with pytest.raises(RecoveryExhaustedError):
            run(run_config, schedule)

    def test_multiple_crashes_still_bit_identical(self, run_config):
        baseline = run(run_config, passes=2, cache=True)
        faulted = run(
            run_config,
            FaultSchedule([
                ComputeNodeCrash(0, 0, at_fraction=0.2),
                ComputeNodeCrash(1, 3, at_fraction=0.7),
            ]),
            passes=2,
            cache=True,
        )
        assert faulted.result == baseline.result
        recoveries = [
            e
            for e in faulted.breakdown.fault_events
            if e["kind"] == "compute-node-recovery"
        ]
        assert [e["compute_node"] for e in recoveries] == [0, 3]
        assert recoveries[1]["survivors"] == 2


class TestDegradations:
    def test_link_degradation_stretches_network_only(self, run_config):
        baseline = run(run_config)
        faulted = run(
            run_config, FaultSchedule([LinkDegradation(0, factor=2.0)])
        )
        assert faulted.breakdown.t_network > baseline.breakdown.t_network
        assert faulted.breakdown.t_disk == baseline.breakdown.t_disk
        assert faulted.result == baseline.result

    def test_slow_node_stretches_compute_only(self, run_config):
        baseline = run(run_config)
        faulted = run(
            run_config, FaultSchedule([SlowNode(0, factor=3.0)])
        )
        assert faulted.breakdown.t_compute > baseline.breakdown.t_compute
        assert faulted.breakdown.t_disk == baseline.breakdown.t_disk
        assert faulted.breakdown.t_network == baseline.breakdown.t_network
        assert faulted.result == baseline.result


class TestDeterminism:
    def test_identical_seeds_identical_breakdowns(self, run_config):
        schedule = FaultSchedule([
            ChunkReadError(rate=0.3),
            DataNodeCrash(0, 0, 0.25),
            ComputeNodeCrash(0, 1, 0.6),
        ])
        a = run(run_config, schedule, seed=5)
        b = run(run_config, schedule, seed=5)
        assert a.breakdown.passes == b.breakdown.passes
        assert a.breakdown.fault_events == b.breakdown.fault_events
        assert a.result == b.result
