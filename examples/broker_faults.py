#!/usr/bin/env python
"""Brokering through grid weather: outages, WAN rot, flaky jobs.

The same two-cluster grid and seeded job stream as
``examples/broker_workload.py``, but the run is hit by a scenario of
grid-scoped faults: a compute site goes dark mid-stream and is repaired,
a WAN link loses half its bandwidth for a while, and one job's first
execution attempt fails for reasons outside the middleware's model.  The
broker preempts the torn-down attempts, quiesces the lost capacity, and
re-places the work under a checkpoint-aware ``migrate`` recovery policy
that charges :math:`T_{recover}` and re-runs only the unfinished passes.

Afterwards a seeded chaos campaign sweeps randomized fault timelines
over the same stream and checks the resilience invariants: every job
settles exactly once, no reservation overlaps an outage, and each
(seed, scenario) pair replays byte-identically.

The same experiment is available from the command line::

    repro broker WORKLOAD.json --faults scenario.json --recovery migrate

Run:  python examples/broker_faults.py
"""

from repro.analysis import format_broker
from repro.broker import GridBroker, parse_workload_document
from repro.faults import grid_scenario_from_dict
from repro.faults.chaos import ChaosSpec, run_campaign
from repro.workloads.traces.generate import stream_horizon

WORKLOAD = {
    "name": "example-faulted-stream",
    "allocations": [[1, 2], [2, 4]],
    "sites": [
        {"name": "repo-a", "kind": "repository",
         "cluster": "pentium-myrinet", "nodes": 16},
        {"name": "hpc-1", "kind": "compute",
         "cluster": "pentium-myrinet", "nodes": 16},
        {"name": "hpc-2", "kind": "compute",
         "cluster": "opteron-infiniband", "nodes": 16},
    ],
    "links": [
        {"a": "repo-a", "b": "hpc-1", "bw": 2.0e6},
        {"a": "repo-a", "b": "hpc-2", "bw": 1.0e6},
    ],
    "stream": {
        "count": 40,
        "seed": 11,
        "mean_interarrival": 0.08,
        "mix": [["kmeans", None, 2.0], ["knn", None, 1.0],
                ["em", None, 1.0]],
        "deadline_fraction": 0.4,
        "deadline_slack": [1.2, 3.0],
        "priorities": [0, 1],
    },
}

SCENARIO = {
    "recovery": "migrate",
    "retry": {"max_attempts": 3, "base_backoff_s": 0.02},
    "grid_faults": [
        {"type": "site-outage", "site": "hpc-1", "at": 1.0,
         "repair_after": 1.5},
        {"type": "wan-degradation", "a": "repo-a", "b": "hpc-2",
         "factor": 2.0, "at": 0.5, "duration": 2.0},
        {"type": "transient-job-failure", "job": "job0003-kmeans",
         "failures": 1, "at_fraction": 0.6},
    ],
}


def main() -> None:
    doc = parse_workload_document(WORKLOAD)
    broker = GridBroker.from_document(doc)
    jobs = broker.resolve_jobs(doc)
    scenario = grid_scenario_from_dict(SCENARIO)

    print(f"brokering {len(jobs)} jobs through "
          f"{len(scenario.schedule)} scheduled grid faults...\n")
    report = broker.compare(
        doc.name,
        jobs,
        ["min-completion"],
        faults=scenario.schedule,
        recovery=scenario.recovery or "resubmit",
        retry=scenario.retry,
    )
    print(format_broker(report))

    faulted = report.run("min-completion")
    print(
        f"\nresilience: goodput {100 * faulted.goodput:.1f}%, "
        f"{len(faulted.preemptions)} preemption(s), "
        f"{len(faulted.failures)} terminal failure(s), "
        f"recovery charges {faulted.recovery_charge_time:.4f}s"
    )

    print("\nchaos campaign: 5 seeded random timelines, migrate recovery")
    spec = ChaosSpec(horizon=stream_horizon(jobs))
    campaign = run_campaign(
        broker, jobs, seeds=range(5), spec=spec, recovery="migrate"
    )
    for case in campaign.cases:
        print(
            f"  seed {case.seed}: {case.faults} fault(s), "
            f"{case.completed} done, {case.failed} failed, goodput "
            f"{100 * case.goodput:.1f}%, replay "
            f"{'identical' if case.replay_identical else 'DIVERGED'}"
        )
    print(f"invariants: {'all hold' if campaign.ok else campaign.violations}")


if __name__ == "__main__":
    main()
