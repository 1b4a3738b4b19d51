"""Chaos campaigns over the broker: resilience under seeded grid faults.

Sweeps seeded fault timelines (site outages, node-pool shrinks, WAN
degradations, transient job failures) over the same heterogeneous
stream as ``bench_broker`` and checks the fault model's tentpole
guarantees for *both* recovery policies:

- every admitted job settles exactly once (placed, rejected, or
  terminally failed) — chaos never loses work;
- no reservation window overlaps a declared site outage and no node is
  double-booked;
- replaying an identical (seed, scenario) pair yields a byte-identical
  report — determinism survives adversity.

The per-seed outcomes and goodput are printed (``-s`` shows them);
nothing is written to the tree.

``REPRO_CHAOS_BENCH_COUNT`` caps the stream size for CI smoke runs;
the full 120-job stream is the default.
"""

from __future__ import annotations

import dataclasses
import os

from repro.broker import GridBroker
from repro.faults.chaos import ChaosSpec, run_campaign
from repro.workloads.traces.generate import (
    StreamSpec,
    generate_stream,
    stream_horizon,
)

from benchmarks.bench_broker import hetero_grid, stream_spec
from benchmarks.conftest import run_once

CHAOS_COUNT = int(os.environ.get("REPRO_CHAOS_BENCH_COUNT", "120"))

SEEDS = [11, 23, 47, 89]

RECOVERIES = ["resubmit", "migrate"]


def chaos_stream_spec() -> StreamSpec:
    return dataclasses.replace(stream_spec(), count=CHAOS_COUNT)


def run_resilience_study():
    broker = GridBroker(hetero_grid(), [(1, 2), (2, 4)])
    jobs = generate_stream(chaos_stream_spec(), baselines=broker.baseline_estimate)
    spec = ChaosSpec(horizon=stream_horizon(jobs))
    return {
        recovery: run_campaign(
            broker, jobs, SEEDS, spec, recovery=recovery
        )
        for recovery in RECOVERIES
    }


def format_campaigns(campaigns) -> str:
    lines = [f"chaos campaigns: {CHAOS_COUNT} jobs x {len(SEEDS)} seeds"]
    for recovery, report in campaigns.items():
        lines.append(
            f"  {recovery:<10} ok={report.ok}  preemptions "
            f"{sum(c.preemptions for c in report.cases)}  failed "
            f"{sum(c.failed for c in report.cases)}  min goodput "
            f"{100 * min(c.goodput for c in report.cases):.1f}%"
        )
        for case in report.cases:
            lines.append(
                f"    seed {case.seed:>3}: {case.faults} fault(s), "
                f"{case.completed} done, {case.failed} failed, "
                f"{case.preemptions} preempted, goodput "
                f"{100 * case.goodput:.1f}%, replay "
                f"{'ok' if case.replay_identical else 'DIVERGED'}"
            )
    return "\n".join(lines)


def test_chaos_invariants_hold(benchmark):
    campaigns = run_once(benchmark, run_resilience_study)

    print()
    print(format_campaigns(campaigns))

    for recovery, report in campaigns.items():
        assert report.ok, f"{recovery}: " + "; ".join(report.violations)

    # Chaos must actually have exercised the fault path — a campaign
    # that drew zero faults across every seed proves nothing.
    assert any(
        case.faults > 0 for report in campaigns.values() for case in report.cases
    )
