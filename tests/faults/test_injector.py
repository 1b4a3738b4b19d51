"""Unit tests for the fault injector, schedules, and replica failover."""

import pytest

from repro.errors import FaultError, RecoveryExhaustedError, ReproError
from repro.simgrid.errors import ConfigurationError
from repro.faults import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
    RetryPolicy,
    SlowNode,
    injector_from_dict,
    schedule_from_dict,
)
from repro.middleware.runtime import FreerideGRuntime
from tests.conftest import SumApp, make_tiny_points


class TestFaultSchedule:
    def test_rejects_non_fault_entries(self):
        with pytest.raises(FaultError):
            FaultSchedule(["not-a-fault"])

    def test_checkpoints_auto_enable_on_compute_crash(self):
        assert not FaultSchedule().checkpoints_enabled
        assert not FaultSchedule([DataNodeCrash(0, 0)]).checkpoints_enabled
        assert FaultSchedule([ComputeNodeCrash(0, 1)]).checkpoints_enabled
        # explicit override wins either way
        assert FaultSchedule([], checkpoints=True).checkpoints_enabled
        assert not FaultSchedule(
            [ComputeNodeCrash(0, 1)], checkpoints=False
        ).checkpoints_enabled

    def test_spec_validation(self):
        with pytest.raises(FaultError):
            DataNodeCrash(0, 0, at_fraction=1.5)
        with pytest.raises(FaultError):
            LinkDegradation(0, factor=0.5)
        with pytest.raises(FaultError):
            SlowNode(0, factor=2.0, from_pass=3, until_pass=3)
        with pytest.raises(FaultError):
            ChunkReadError(rate=0.0)  # no rate and no explicit failures

    def test_errors_share_the_repro_root(self):
        with pytest.raises(ReproError):
            ChunkReadError(rate=1.0)


class TestDeterminism:
    def test_rate_draws_are_reproducible(self):
        schedule = FaultSchedule([ChunkReadError(rate=0.3)])
        a = FaultInjector(schedule, seed=7).chunk_failures(0, 1, 12)
        b = FaultInjector(schedule, seed=7).chunk_failures(0, 1, 12)
        assert a == b and a  # identical and non-empty at this rate

    def test_different_seeds_differ(self):
        schedule = FaultSchedule([ChunkReadError(rate=0.3)])
        draws = {
            tuple(sorted(FaultInjector(schedule, seed=s).chunk_failures(
                0, 0, 64).items()))
            for s in range(8)
        }
        assert len(draws) > 1

    def test_rate_draws_capped_at_retry_budget(self):
        schedule = FaultSchedule([ChunkReadError(rate=0.95)])
        policy = RetryPolicy(max_attempts=3)
        failures = FaultInjector(schedule, policy=policy, seed=1).chunk_failures(
            0, 0, 32
        )
        assert failures and max(failures.values()) <= policy.max_failures

    def test_explicit_failures_taken_verbatim(self):
        schedule = FaultSchedule(
            [ChunkReadError(failures={2: 9, 5: 1}, pass_index=0)]
        )
        injector = FaultInjector(schedule)
        assert injector.chunk_failures(0, 0, 8) == {2: 9, 5: 1}
        assert injector.chunk_failures(1, 0, 8) == {}


class TestScheduledQueries:
    def test_crashes_sorted_by_fraction(self):
        schedule = FaultSchedule([
            ComputeNodeCrash(1, 3, 0.8),
            ComputeNodeCrash(1, 1, 0.2),
            ComputeNodeCrash(0, 0, 0.5),
        ])
        injector = FaultInjector(schedule)
        assert [c.compute_node for c in injector.compute_node_crashes(1)] == [1, 3]
        assert injector.compute_node_crashes(2) == []

    def test_degradation_factors_compound(self):
        schedule = FaultSchedule([
            LinkDegradation(0, 2.0),
            LinkDegradation(0, 1.5, from_pass=1),
            SlowNode(2, 3.0, from_pass=0, until_pass=2),
        ])
        injector = FaultInjector(schedule)
        assert injector.link_factor(0, 0) == 2.0
        assert injector.link_factor(0, 1) == pytest.approx(3.0)
        assert injector.link_factor(1, 0) == 1.0
        assert injector.slow_factor(2, 1) == 3.0
        assert injector.slow_factor(2, 2) == 1.0

    def test_validate_rejects_out_of_range_nodes(self):
        injector = FaultInjector(FaultSchedule([DataNodeCrash(0, 5)]))
        with pytest.raises(FaultError):
            injector.validate(data_nodes=2, compute_nodes=4)

    def test_validate_rejects_chunk_read_error_on_a_missing_data_node(self):
        schedule = FaultSchedule([ChunkReadError(data_node=5, failures={0: 2})])
        with pytest.raises(FaultError, match="ChunkReadError names data node 5"):
            FaultInjector(schedule).validate(data_nodes=2, compute_nodes=4)
        # Unset (every node) and in-range nodes stay valid.
        in_range = [ChunkReadError(rate=0.1), ChunkReadError(data_node=1, rate=0.1)]
        FaultInjector(FaultSchedule(in_range)).validate(
            data_nodes=2, compute_nodes=4
        )

    def test_runtime_refuses_chunk_read_error_on_a_missing_data_node(
        self, run_config
    ):
        schedule = FaultSchedule([ChunkReadError(data_node=5, failures={0: 2})])
        runtime = FreerideGRuntime(run_config, faults=FaultInjector(schedule))
        with pytest.raises(FaultError, match="run has only 2"):
            runtime.execute(SumApp(), make_tiny_points())

    def test_validate_rejects_total_compute_loss(self):
        schedule = FaultSchedule(
            [ComputeNodeCrash(0, 0), ComputeNodeCrash(1, 1)]
        )
        with pytest.raises(RecoveryExhaustedError):
            FaultInjector(schedule).validate(data_nodes=1, compute_nodes=2)


class TestFailover:
    def test_injector_consumes_standby_replicas(self):
        injector = FaultInjector(
            FaultSchedule(), replica_sites=["standby-1", "standby-2"]
        )
        assert injector.failover_site(0) == "standby-1"
        assert injector.failover_site(1) == "standby-2"
        with pytest.raises(RecoveryExhaustedError):
            injector.failover_site(0)


class TestScenarioParsing:
    def test_round_trip_of_every_fault_kind(self):
        schedule = schedule_from_dict({
            "faults": [
                {"type": "data-node-crash", "pass": 0, "data_node": 1},
                {"type": "compute-node-crash", "pass": 2,
                 "compute_node": 3, "at_fraction": 0.25},
                {"type": "link-degradation", "data_node": 0, "factor": 2.0},
                {"type": "slow-node", "compute_node": 1, "factor": 1.5,
                 "from_pass": 1, "until_pass": 4},
                {"type": "chunk-read-error", "rate": 0.05},
            ]
        })
        assert len(schedule) == 5
        assert schedule.of_type(ComputeNodeCrash)[0].at_fraction == 0.25

    def test_unknown_type_and_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="data-node-crash"):
            schedule_from_dict({"faults": [{"type": "meteor-strike"}]})
        with pytest.raises(FaultError):
            schedule_from_dict({
                "faults": [{"type": "data-node-crash", "pass": 0,
                            "data_node": 0, "typo": 1}]
            })

    def test_grid_kind_in_execution_scope_names_both_scopes(self):
        with pytest.raises(ConfigurationError) as excinfo:
            schedule_from_dict({"faults": [{"type": "site-outage",
                                            "site": "hpc-1", "at": 5.0}]})
        message = str(excinfo.value)
        assert "grid-scoped" in message
        assert "data-node-crash" in message  # names the valid kinds

    def test_injector_from_dict_wires_policy_and_replicas(self):
        injector = injector_from_dict({
            "seed": 42,
            "replicas": ["repo-b"],
            "retry_policy": {"max_attempts": 5},
            "checkpoints": True,
            "faults": [{"type": "chunk-read-error", "rate": 0.1}],
        })
        assert injector.seed == 42
        assert injector.policy.max_attempts == 5
        assert injector.checkpoints_enabled
        assert injector.failover_site(0) == "repo-b"
