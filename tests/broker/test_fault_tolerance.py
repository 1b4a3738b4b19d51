"""Broker behavior under grid faults: preemption, recovery, terminal failure."""

import json
from dataclasses import replace

import pytest

from repro.broker import BrokerJob
from repro.broker.report import _run_to_dict
from repro.faults import (
    DEFAULT_BROKER_RETRY_POLICY,
    GridFaultSchedule,
    NodePoolShrink,
    SiteOutage,
    TransientJobFailure,
    WanDegradation,
)
from repro.simgrid.errors import ConfigurationError


def stream(count=6, workload="kmeans", spacing=0.02):
    return [
        BrokerJob(job_id=f"j{i}", workload=workload, arrival=spacing * i)
        for i in range(count)
    ]


def mid_flight(run):
    """(compute_site, time) inside the first placement's execution."""
    p = run.placements[0]
    return p.compute_site, (p.start + p.end) / 2.0


class TestFaultFreeIdentity:
    def test_unfaulted_run_serializes_without_resilience_keys(self, broker):
        run = broker.run(stream(), "min-completion")
        assert not run.faulted
        data = _run_to_dict(run)
        for key in ("recovery", "fault_events", "preemptions", "failures"):
            assert key not in data
        assert "failed" not in data["metrics"]
        assert "resilience" not in data["metrics"]
        assert run.goodput == 1.0
        assert run.wasted_time == 0.0

    def test_empty_schedule_is_fault_free(self, broker):
        baseline = broker.run(stream(), "min-completion")
        empty = broker.run(
            stream(), "min-completion", faults=GridFaultSchedule()
        )
        assert not empty.faulted
        assert _run_to_dict(empty) == _run_to_dict(baseline)

    def test_unknown_fault_site_rejected(self, broker):
        schedule = GridFaultSchedule([SiteOutage(site="atlantis", at=1.0)])
        with pytest.raises(ConfigurationError, match="atlantis"):
            broker.run(stream(), "min-completion", faults=schedule)


class TestSiteOutage:
    def test_outage_preempts_and_recovery_replaces(self, broker):
        baseline = broker.run(stream(), "min-completion")
        site, when = mid_flight(baseline)
        schedule = GridFaultSchedule(
            [SiteOutage(site=site, at=when, repair_after=20.0)]
        )
        run = broker.run(stream(), "min-completion", faults=schedule)

        assert run.faulted
        assert run.recovery == "resubmit"
        # Every job still settles exactly once, none terminally.
        assert sorted(p.job_id for p in run.placements) == sorted(
            j.job_id for j in stream()
        )
        assert run.failures == ()
        # The outage tore down at least one running attempt.
        causes = {p.cause for p in run.preemptions}
        assert "site-outage" in causes
        kinds = {e.kind for e in run.fault_events}
        assert {"site-outage", "site-repair"} <= kinds
        assert run.wasted_time > 0.0
        assert run.goodput < 1.0
        # Preempted jobs re-placed on a later attempt.
        assert max(p.attempt for p in run.placements) >= 2

    def test_no_window_overlaps_declared_outage(self, broker):
        baseline = broker.run(stream(), "min-completion")
        site, when = mid_flight(baseline)
        schedule = GridFaultSchedule(
            [SiteOutage(site=site, at=when, repair_after=20.0)]
        )
        broker.run(stream(), "min-completion", faults=schedule)
        ledger = broker.last_ledger
        outages = ledger.all_outages()
        assert outages
        for outage in outages:
            for window in ledger.all_windows():
                assert not outage.covers(window)

    def test_permanent_repository_outage_strands_jobs(self, broker):
        repo = next(iter(broker.topology.repositories())).name
        schedule = GridFaultSchedule([SiteOutage(site=repo, at=0.0)])
        run = broker.run(stream(), "min-completion", faults=schedule)
        assert run.placements == ()
        assert sorted(f.job_id for f in run.failures) == sorted(
            j.job_id for j in stream()
        )
        assert {f.code for f in run.failures} == {"stranded-no-capacity"}
        # Failed deadline-less jobs never count as deadline misses...
        assert run.deadline_miss_rate == 0.0
        # ...but they do count toward the settled-job total.
        assert run.jobs == len(stream())


class TestNodePoolShrink:
    def test_shrink_preempts_holders_and_restores(self, broker):
        baseline = broker.run(stream(), "min-completion")
        site, when = mid_flight(baseline)
        nodes = broker.topology.site(site).cluster.num_nodes
        schedule = GridFaultSchedule([
            NodePoolShrink(
                site=site, at=when, nodes=nodes, restore_after=20.0
            )
        ])
        run = broker.run(stream(), "min-completion", faults=schedule)
        kinds = {e.kind for e in run.fault_events}
        assert {"pool-shrink", "pool-restore"} <= kinds
        assert sorted(p.job_id for p in run.placements) == sorted(
            j.job_id for j in stream()
        )
        assert any(p.cause == "pool-shrink" for p in run.preemptions)


class TestRecoveryPolicies:
    def test_resubmit_restarts_from_scratch(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=1, at_fraction=0.9)]
        )
        run = broker.run(
            stream(), "min-completion", faults=schedule, recovery="resubmit"
        )
        assert run.recovery == "resubmit"
        (preempted,) = [p for p in run.preemptions if p.job_id == "j0"]
        assert preempted.cause == "transient-failure"
        assert preempted.kept_fraction == 0.0
        (placed,) = [p for p in run.placements if p.job_id == "j0"]
        assert placed.attempt == 2
        assert placed.recovery_charge == 0.0

    def test_migrate_keeps_finished_passes_and_charges_recovery(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=1, at_fraction=0.9)]
        )
        run = broker.run(
            stream(), "min-completion", faults=schedule, recovery="migrate"
        )
        assert run.recovery == "migrate"
        (preempted,) = [p for p in run.preemptions if p.job_id == "j0"]
        assert preempted.kept_fraction > 0.0
        (placed,) = [p for p in run.placements if p.job_id == "j0"]
        assert placed.attempt == 2
        assert placed.recovery_charge > 0.0
        assert run.recovery_charge_time == pytest.approx(
            placed.recovery_charge
        )

    def test_migrate_wastes_less_than_resubmit(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=1, at_fraction=0.9)]
        )
        resubmit = broker.run(
            stream(), "min-completion", faults=schedule, recovery="resubmit"
        )
        migrate = broker.run(
            stream(), "min-completion", faults=schedule, recovery="migrate"
        )
        assert migrate.wasted_time < resubmit.wasted_time

    def test_unknown_recovery_name_rejected(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=1)]
        )
        with pytest.raises(ConfigurationError, match="resubmit"):
            broker.run(
                stream(), "min-completion", faults=schedule, recovery="pray"
            )

    def test_unknown_recovery_name_rejected_without_faults(self, broker):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            broker.run(stream(), "min-completion", recovery="bogus")

    def test_fault_free_run_reports_no_recovery(self, broker):
        run = broker.run(stream(), "min-completion", recovery="migrate")
        assert run.recovery is None


class TestRetryBudget:
    def test_budget_exhaustion_is_terminal(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=3, at_fraction=0.5)]
        )
        run = broker.run(
            stream(),
            "min-completion",
            faults=schedule,
            retry=replace(DEFAULT_BROKER_RETRY_POLICY, max_attempts=2),
        )
        (failure,) = run.failures
        assert failure.job_id == "j0"
        assert failure.code == "retry-budget-exhausted"
        assert failure.attempts == 2
        assert all(p.job_id != "j0" for p in run.placements)
        # The other jobs are unaffected.
        assert len(run.placements) == len(stream()) - 1

    def test_failures_within_budget_still_complete(self, broker):
        schedule = GridFaultSchedule(
            [TransientJobFailure(job_id="j0", failures=2, at_fraction=0.5)]
        )
        run = broker.run(stream(), "min-completion", faults=schedule)
        assert run.failures == ()
        (placed,) = [p for p in run.placements if p.job_id == "j0"]
        assert placed.attempt == 3


class TestWanDegradation:
    def test_degraded_path_stretches_completion(self, broker):
        baseline = broker.run(stream(), "min-completion")
        repo = next(iter(broker.topology.repositories())).name
        site = baseline.placements[0].compute_site
        schedule = GridFaultSchedule(
            [WanDegradation(site_a=repo, site_b=site, factor=4.0, at=0.0)]
        )
        run = broker.run(stream(), "min-completion", faults=schedule)
        assert run.makespan > baseline.makespan
        assert any(e.kind == "wan-degradation" for e in run.fault_events)
        assert sorted(p.job_id for p in run.placements) == sorted(
            j.job_id for j in stream()
        )


class TestFaultedPersistence:
    def faulted_report(self, broker):
        baseline = broker.run(stream(), "min-completion")
        site, when = mid_flight(baseline)
        schedule = GridFaultSchedule([
            SiteOutage(site=site, at=when, repair_after=20.0),
            TransientJobFailure(job_id="j3", failures=1, at_fraction=0.4),
        ])
        return broker.compare(
            "faulted", stream(), ["min-completion"], faults=schedule,
            recovery="migrate",
        )

    def test_faulted_report_round_trips_byte_identically(self, broker, tmp_path):
        report = self.faulted_report(broker)
        first = report.save(tmp_path / "a.json")
        second = report.save(tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
        (run,) = [
            run
            for run in json.loads(first.read_text())["runs"]
            if run["policy"] == "min-completion" and run["calibrated"]
        ]
        assert run["recovery"] == "migrate"
        assert run["preemptions"]
        assert run["fault_events"]

    def test_identical_schedule_replays_byte_identically(self, broker):
        a = self.faulted_report(broker)
        b = self.faulted_report(broker)
        assert [_run_to_dict(r) for r in a.runs] == [
            _run_to_dict(r) for r in b.runs
        ]
