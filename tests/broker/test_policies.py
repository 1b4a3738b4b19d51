"""Placement policies: choice behaviour, admission, round-robin rotation."""

import pytest
from hypothesis import given, strategies as st

from repro.broker.jobs import BrokerJob
from repro.broker.policies import (
    POLICY_NAMES,
    DeadlineAwarePolicy,
    MinCompletionPolicy,
    MinCostPolicy,
    PlacementOption,
    Rejection,
    RoundRobinPolicy,
    attempt_total,
    make_policy,
)
from repro.core.models import PredictedBreakdown
from repro.core.selection import SelectionCandidate
from repro.simgrid.errors import ConfigurationError

PREDICTION = PredictedBreakdown(t_disk=0.2, t_network=0.3, t_compute=0.5)


def candidate(
    compute_site: str,
    *,
    replica_site: str = "repo",
    data_nodes: int = 1,
    compute_nodes: int = 2,
) -> SelectionCandidate:
    return SelectionCandidate(
        replica_site=replica_site,
        compute_site=compute_site,
        data_nodes=data_nodes,
        compute_nodes=compute_nodes,
        bandwidth=1.0e6,
        prediction=PREDICTION,
    )


JOB = BrokerJob(job_id="j1", workload="knn")


class TestMinCompletion:
    def test_picks_smallest_predicted_total(self):
        cands = [candidate("slow"), candidate("fast")]
        assert MinCompletionPolicy().choose_index(JOB, cands, [2.0, 1.0], 0.0) == 1

    def test_tie_breaks_deterministically(self):
        cands = [candidate("b"), candidate("a")]
        assert MinCompletionPolicy().choose_index(JOB, cands, [1.0, 1.0], 0.0) == 1


class TestMinCost:
    def test_prefers_fewer_node_hours(self):
        # 3 nodes x 1.2s = 3.6 node-seconds beats 6 nodes x 1.0s = 6.0.
        fast = candidate("b", data_nodes=2, compute_nodes=4)
        cheap = candidate("a", data_nodes=1, compute_nodes=2)
        assert MinCostPolicy().choose_index(JOB, [fast, cheap], [1.0, 1.2], 0.0) == 1


class TestDeadlineAware:
    def test_admits_without_deadline(self):
        policy = DeadlineAwarePolicy()
        assert not policy.wants_admission_totals(JOB)
        assert policy.admit(JOB, [5.0], 0.0) is None

    def test_rejects_unmeetable_deadline_at_admission(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=1.0)
        policy = DeadlineAwarePolicy()
        assert policy.wants_admission_totals(job)
        refusal = policy.admit(job, [5.0], 0.0)
        assert isinstance(refusal, Rejection)
        assert refusal.code == "deadline-unmeetable"

    def test_admits_meetable_deadline(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=2.0)
        assert DeadlineAwarePolicy().admit(job, [1.5], 0.0) is None

    def test_rejects_when_queue_wait_ate_the_slack(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=2.0)
        decision = DeadlineAwarePolicy().choose_index(
            job, [candidate("a")], [1.5], 1.0
        )
        assert isinstance(decision, Rejection)
        assert decision.code == "deadline-miss-predicted"

    def test_picks_cheapest_meeting_option(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=3.0)
        # 6 nodes x 1.0s = 6.0 node-seconds vs 3 nodes x 1.2s = 3.6;
        # the 5.0s option misses the deadline and is filtered out.
        cands = [
            candidate("a", data_nodes=2, compute_nodes=4),
            candidate("b", data_nodes=1, compute_nodes=2),
            candidate("c", data_nodes=1, compute_nodes=2),
        ]
        index = DeadlineAwarePolicy().choose_index(
            job, cands, [1.0, 1.2, 5.0], 0.5
        )
        assert index == 1

    def test_no_deadline_falls_back_to_min_completion(self):
        cands = [candidate("slow"), candidate("fast")]
        assert DeadlineAwarePolicy().choose_index(JOB, cands, [2.0, 1.0], 0.0) == 1


class TestRoundRobin:
    def test_reads_no_predictions(self):
        assert not RoundRobinPolicy.needs_totals

    def test_rotates_over_compute_sites(self):
        policy = RoundRobinPolicy(["a", "b"])
        cands = [candidate("a"), candidate("b")]
        sites = [
            cands[policy.choose_index(JOB, cands, [], 0.0)].compute_site
            for _ in range(3)
        ]
        assert sites == ["a", "b", "a"]

    def test_skips_sites_without_options(self):
        policy = RoundRobinPolicy(["a", "b"])
        only_b = [candidate("b")]
        assert policy.choose_index(JOB, only_b, [], 0.0) == 0
        # pointer advanced past b; a full rotation still finds b again
        assert policy.choose_index(JOB, only_b, [], 0.0) == 0

    def test_picks_smallest_allocation_not_fastest(self):
        policy = RoundRobinPolicy(["a"])
        fast_big = candidate("a", data_nodes=2, compute_nodes=4)
        slow_small = candidate("a", data_nodes=1, compute_nodes=2)
        assert policy.choose_index(JOB, [fast_big, slow_small], [], 0.0) == 1

    def test_needs_compute_sites(self):
        with pytest.raises(ConfigurationError):
            RoundRobinPolicy([])


seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestAttemptTotal:
    """The broker scores a resumed or WAN-stretched attempt with
    ``attempt_total`` and records the winner's option, so the two must
    agree bit for bit."""

    @given(
        disk=seconds,
        network=seconds,
        compute=seconds,
        remaining=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        charge=seconds,
        wan=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_equals_option_predicted_total(
        self, disk, network, compute, remaining, charge, wan
    ):
        calibrated = PredictedBreakdown(
            t_disk=disk, t_network=network, t_compute=compute
        )
        option = PlacementOption(
            candidate=candidate("a"),
            raw=PREDICTION,
            calibrated=calibrated,
            remaining_fraction=remaining,
            resume_charge=charge,
            wan_factor=wan,
        )
        total = attempt_total(calibrated, remaining, charge, wan)
        assert total.hex() == option.predicted_total.hex()

    def test_identity_is_the_calibrated_total(self):
        assert attempt_total(PREDICTION, 1.0, 0.0, 1.0) == PREDICTION.total


class TestFactory:
    def test_makes_every_named_policy(self):
        for name in POLICY_NAMES:
            assert make_policy(name, ["a"]).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_policy("random", ["a"])
