"""Broker policies over a seeded 200-job heterogeneous stream.

Drives the four placement policies over the same Poisson stream on a
Pentium/Myrinet + Opteron/InfiniBand grid and checks the subsystem's
headline claims:

- prediction-guided placement (min-completion) beats the prediction-free
  round-robin baseline on makespan;
- deadline-aware admission control strictly reduces the deadline-miss
  rate vs round-robin (rejected deadline jobs count as missed, so the
  policy cannot game the metric by refusing work);
- online calibration reduces the mean relative prediction error over the
  last 50 jobs vs the uncalibrated control run;
- replaying the same seed yields a byte-identical report file.

The policy table is printed (``-s`` shows it); nothing is written to the
tree, so a run leaves ``git status`` clean.

``REPRO_BROKER_BENCH_COUNT`` shrinks the stream for CI smoke runs (the
error window scales down with it); the full 200-job stream is the
default.
"""

from __future__ import annotations

import os

from repro.analysis import format_broker
from repro.broker import GridBroker
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)
from repro.workloads.traces.generate import StreamSpec, generate_stream

from benchmarks.conftest import run_once

COUNT = int(os.environ.get("REPRO_BROKER_BENCH_COUNT", "200"))
#: Jobs of the calibration-accuracy window (the stream's converged tail).
ERROR_WINDOW = min(50, max(COUNT // 4, 1))

POLICIES = ["min-completion", "min-cost", "deadline-aware", "round-robin"]


def hetero_grid() -> GridTopology:
    topology = GridTopology()
    topology.add_site(
        "repo-a", SiteKind.REPOSITORY, pentium_myrinet_cluster(num_nodes=16)
    )
    topology.add_site(
        "hpc-1", SiteKind.COMPUTE, pentium_myrinet_cluster(num_nodes=16)
    )
    topology.add_site(
        "hpc-2", SiteKind.COMPUTE, opteron_infiniband_cluster(num_nodes=16)
    )
    topology.connect("repo-a", "hpc-1", bw=2.0e6)
    topology.connect("repo-a", "hpc-2", bw=1.0e6)
    return topology


def stream_spec() -> StreamSpec:
    return StreamSpec(
        count=COUNT,
        seed=42,
        mean_interarrival=0.08,
        mix=(
            ("kmeans", None, 2.0),
            ("knn", None, 1.0),
            ("vortex", None, 1.0),
            ("em", None, 1.0),
        ),
        deadline_fraction=0.4,
        deadline_slack=(1.2, 3.0),
        priorities=(0, 1),
    )


def run_broker_study():
    def one_report():
        broker = GridBroker(hetero_grid(), [(1, 2), (2, 4)])
        jobs = generate_stream(
            stream_spec(), baselines=broker.baseline_estimate
        )
        return broker.compare("bench-broker", jobs, POLICIES)

    report = one_report()
    replay = one_report()
    return report, replay


def test_broker_policies_and_calibration(benchmark, tmp_path):
    report, replay = run_once(benchmark, run_broker_study)

    print()
    print(format_broker(report))

    min_completion = report.run("min-completion")
    deadline_aware = report.run("deadline-aware")
    round_robin = report.run("round-robin")
    uncalibrated = report.run("min-completion (uncalibrated)")

    # Every job of the stream is accounted for under every policy.
    assert all(run.jobs == COUNT for run in report.runs)

    # Prediction-guided placement beats the prediction-free baseline.
    assert min_completion.makespan < round_robin.makespan

    # Admission control strictly reduces deadline misses.
    assert deadline_aware.deadline_miss_rate < round_robin.deadline_miss_rate

    # Online calibration converges: the error of the stream's tail is
    # below the uncalibrated control's.
    calibrated_tail = min_completion.mean_error(last=ERROR_WINDOW)
    uncalibrated_tail = uncalibrated.mean_error(last=ERROR_WINDOW)
    assert calibrated_tail < uncalibrated_tail

    # Replaying the same seed is byte-identical on disk.
    a = report.save(tmp_path / "a.json")
    b = replay.save(tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
