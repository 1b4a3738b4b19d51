#!/usr/bin/env python
"""Trace-realistic workloads: GWA-shaped streams on the reference grid.

The ``gwa-mixed`` preset models three virtual organisations the way the
Grid Workload Archive traces look: a bulk-production VO on Weibull
interarrivals, an analysis VO on lognormal gaps, and a bursty
biomedical VO on Pareto gaps with deadlines — all under day/week
modulation.  The seeded spec expands deterministically into a
fingerprinted :class:`TraceWorkload` artifact, round-trips through the
Grid Workload Archive ``.gwf`` text format, and feeds the broker at
trace scale.

The same flow is available from the command line::

    repro trace generate gwa-mixed --count 5000 -o my.trace.json
    repro broker my.trace.json --policy min-cost

``repro broker`` takes the artifact, or the ``.gwf`` file itself, and
brokers it on the reference grid with the options a workload document
gets (``--faults``, ``--recovery``, ``--retry-attempts``).

Run:  python examples/trace_workload.py
"""

from repro.analysis import format_broker, format_trace
from repro.broker import GridBroker
from repro.workloads.traces import (
    REFERENCE_ALLOCATIONS,
    TraceWorkload,
    make_preset,
    parse_gwf,
    reference_grid,
    trace_to_gwf,
)

COUNT = 1500


def main() -> None:
    broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)

    print("expanding the seeded gwa-mixed trace spec...")
    spec = make_preset("gwa-mixed", COUNT, seed=17)
    trace = TraceWorkload.from_spec(
        spec, baselines=broker.baseline_estimate
    )
    print(format_trace(trace))

    print("\nround-tripping through the Grid Workload Archive format...")
    text = trace_to_gwf(trace)
    back = parse_gwf(text, name=trace.name)
    exact = back.jobs == trace.jobs
    lines = text.count("\n")
    print(f"  {lines} GWF lines -> parsed back "
          f"{'exactly' if exact else 'WITH DRIFT'} "
          f"(fingerprint {back.fingerprint[:16]})")

    print("\nscheduling the trace on the reference grid...\n")
    report = broker.compare(
        trace.name,
        list(trace.jobs),
        ["min-completion", "min-cost", "deadline-aware"],
        include_uncalibrated=False,
    )
    print(format_broker(report))

    stats = broker.last_queue_stats
    print(f"\nqueue pressure: {stats.get('events', 0)} events, "
          f"peak event-queue depth {stats.get('peak_event_queue_depth', 0)}, "
          f"peak pending depth {stats.get('peak_pending_depth', 0)}")


if __name__ == "__main__":
    main()
