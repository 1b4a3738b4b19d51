"""Placement policies: choice behaviour, admission, round-robin rotation."""

import pytest

from repro.broker.jobs import BrokerJob
from repro.broker.policies import (
    POLICY_NAMES,
    DeadlineAwarePolicy,
    MinCompletionPolicy,
    MinCostPolicy,
    PlacementOption,
    Rejection,
    RoundRobinPolicy,
    make_policy,
)
from repro.core.models import PredictedBreakdown
from repro.core.selection import SelectionCandidate
from repro.simgrid.errors import ConfigurationError


def option(
    compute_site: str,
    total: float,
    *,
    replica_site: str = "repo",
    data_nodes: int = 1,
    compute_nodes: int = 2,
) -> PlacementOption:
    prediction = PredictedBreakdown(
        t_disk=0.2 * total, t_network=0.3 * total, t_compute=0.5 * total
    )
    candidate = SelectionCandidate(
        replica_site=replica_site,
        compute_site=compute_site,
        data_nodes=data_nodes,
        compute_nodes=compute_nodes,
        bandwidth=1.0e6,
        prediction=prediction,
    )
    return PlacementOption(
        candidate=candidate, raw=prediction, calibrated=prediction
    )


JOB = BrokerJob(job_id="j1", workload="knn")


class TestMinCompletion:
    def test_picks_smallest_predicted_total(self):
        options = [option("slow", 2.0), option("fast", 1.0)]
        assert MinCompletionPolicy().choose(JOB, options, 0.0) is options[1]

    def test_tie_breaks_deterministically(self):
        options = [option("b", 1.0), option("a", 1.0)]
        assert MinCompletionPolicy().choose(JOB, options, 0.0) is options[1]


class TestMinCost:
    def test_prefers_fewer_node_hours(self):
        # 3 nodes x 1.2s = 3.6 node-seconds beats 6 nodes x 1.0s = 6.0.
        cheap = option("a", 1.2, data_nodes=1, compute_nodes=2)
        fast = option("b", 1.0, data_nodes=2, compute_nodes=4)
        assert MinCostPolicy().choose(JOB, [fast, cheap], 0.0) is cheap


class TestDeadlineAware:
    def test_admits_without_deadline(self):
        policy = DeadlineAwarePolicy()
        assert policy.admit(JOB, [option("a", 5.0)], 0.0) is None

    def test_rejects_unmeetable_deadline_at_admission(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=1.0)
        refusal = DeadlineAwarePolicy().admit(job, [option("a", 5.0)], 0.0)
        assert isinstance(refusal, Rejection)
        assert refusal.code == "deadline-unmeetable"

    def test_admits_meetable_deadline(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=2.0)
        assert DeadlineAwarePolicy().admit(job, [option("a", 1.5)], 0.0) is None

    def test_rejects_when_queue_wait_ate_the_slack(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=2.0)
        decision = DeadlineAwarePolicy().choose(job, [option("a", 1.5)], 1.0)
        assert isinstance(decision, Rejection)
        assert decision.code == "deadline-miss-predicted"

    def test_picks_cheapest_meeting_option(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=3.0)
        # 6 nodes x 1.0s = 6.0 node-seconds vs 3 nodes x 1.2s = 3.6;
        # the 5.0s option misses the deadline and is filtered out.
        fast_costly = option("a", 1.0, data_nodes=2, compute_nodes=4)
        slow_cheap = option("b", 1.2, data_nodes=1, compute_nodes=2)
        too_slow = option("c", 5.0, data_nodes=1, compute_nodes=2)
        decision = DeadlineAwarePolicy().choose(
            job, [fast_costly, slow_cheap, too_slow], 0.5
        )
        assert decision is slow_cheap

    def test_no_deadline_falls_back_to_min_completion(self):
        options = [option("slow", 2.0), option("fast", 1.0)]
        assert DeadlineAwarePolicy().choose(JOB, options, 0.0) is options[1]


class TestRoundRobin:
    def test_rotates_over_compute_sites(self):
        policy = RoundRobinPolicy(["a", "b"])
        options = [option("a", 1.0), option("b", 9.0)]
        assert policy.choose(JOB, options, 0.0).compute_site == "a"
        assert policy.choose(JOB, options, 0.0).compute_site == "b"
        assert policy.choose(JOB, options, 0.0).compute_site == "a"

    def test_skips_sites_without_options(self):
        policy = RoundRobinPolicy(["a", "b"])
        only_b = [option("b", 9.0)]
        assert policy.choose(JOB, only_b, 0.0).compute_site == "b"
        # pointer advanced past b; a full rotation still finds b again
        assert policy.choose(JOB, only_b, 0.0).compute_site == "b"

    def test_picks_smallest_allocation_not_fastest(self):
        policy = RoundRobinPolicy(["a"])
        fast_big = option("a", 0.5, data_nodes=2, compute_nodes=4)
        slow_small = option("a", 5.0, data_nodes=1, compute_nodes=2)
        assert policy.choose(JOB, [fast_big, slow_small], 0.0) is slow_small

    def test_needs_compute_sites(self):
        with pytest.raises(ConfigurationError):
            RoundRobinPolicy([])


class TestScalarFastPath:
    """``choose`` is the option-level adapter over ``choose_index``.

    ``choose_index`` is each policy's one decision: the broker's
    fault-free dispatch calls it with bare calibrated totals and only
    materializes the winning option.  Wherever full options exist the
    base class's ``choose`` must hand back exactly the option at the
    chosen index, or the same refusal (also guarded end-to-end by the
    pinned report digests in ``test_report_digests.py``).
    """

    def _split(self, options):
        candidates = [o.candidate for o in options]
        totals = [o.predicted_total for o in options]
        return candidates, totals

    @pytest.mark.parametrize(
        "policy_name", ["min-completion", "min-cost", "deadline-aware"]
    )
    def test_matches_choose_on_fault_free_options(self, policy_name):
        options = [
            option("b", 1.0, data_nodes=2, compute_nodes=4),
            option("a", 1.2, data_nodes=1, compute_nodes=2),
            option("c", 5.0, data_nodes=1, compute_nodes=2),
            option("a", 1.2, data_nodes=2, compute_nodes=4),
        ]
        policy = make_policy(policy_name, ["a", "b", "c"])
        chosen = policy.choose(JOB, options, 0.5)
        candidates, totals = self._split(options)
        index = policy.choose_index(JOB, candidates, totals, 0.5)
        assert options[index] is chosen

    def test_deadline_rejection_is_identical(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=2.0)
        options = [option("a", 1.5), option("b", 1.8)]
        policy = DeadlineAwarePolicy()
        slow = policy.choose(job, options, 1.0)
        candidates, totals = self._split(options)
        fast = policy.choose_index(job, candidates, totals, 1.0)
        assert isinstance(slow, Rejection) and isinstance(fast, Rejection)
        assert fast == slow

    def test_deadline_choose_index_filters_to_meeting(self):
        job = BrokerJob(job_id="j1", workload="knn", deadline=3.0)
        fast_costly = option("a", 1.0, data_nodes=2, compute_nodes=4)
        slow_cheap = option("b", 1.2, data_nodes=1, compute_nodes=2)
        too_slow = option("c", 5.0, data_nodes=1, compute_nodes=2)
        options = [fast_costly, slow_cheap, too_slow]
        candidates, totals = self._split(options)
        index = DeadlineAwarePolicy().choose_index(
            job, candidates, totals, 0.5
        )
        assert options[index] is slow_cheap

    def test_round_robin_rotation_parity(self):
        """Two instances fed the same stream stay in lockstep."""
        slow = RoundRobinPolicy(["a", "b"])
        fast = RoundRobinPolicy(["a", "b"])
        assert not RoundRobinPolicy.needs_totals
        streams = [
            [option("a", 1.0), option("b", 9.0)],
            [option("b", 9.0)],
            [option("a", 1.0), option("b", 9.0)],
            [
                option("a", 0.5, data_nodes=2, compute_nodes=4),
                option("a", 5.0, data_nodes=1, compute_nodes=2),
            ],
        ]
        for options in streams:
            chosen = slow.choose(JOB, options, 0.0)
            candidates = [o.candidate for o in options]
            index = fast.choose_index(JOB, candidates, [], 0.0)
            assert options[index] is chosen
            assert fast._next == slow._next


class TestFactory:
    def test_makes_every_named_policy(self):
        for name in POLICY_NAMES:
            assert make_policy(name, ["a"]).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_policy("random", ["a"])
