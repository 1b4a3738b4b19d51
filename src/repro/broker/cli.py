"""The ``repro broker`` and ``repro trace`` commands.

:data:`repro.cli.COMMANDS` names this module as their owner and calls
``register_<command>(subparser)`` to fill in arguments and handler.
``broker`` runs a workload document's job stream over the grid it
describes; ``trace generate|load|run`` expands a named preset into a
fingerprinted trace artifact, imports a Grid Workload Archive ``.gwf``
file, or brokers a saved trace over the reference grid (DESIGN.md §16).
"""

from __future__ import annotations

import argparse

from repro.analysis import format_broker, format_trace
from repro.broker.engine import GridBroker
from repro.broker.jobs import load_workload_document
from repro.broker.policies import POLICY_NAMES
from repro.faults import BrokerRetryPolicy, load_grid_scenario
from repro.workloads.traces import (
    REFERENCE_ALLOCATIONS,
    TRACE_PRESETS,
    TraceWorkload,
    make_preset,
    parse_gwf,
    reference_grid,
)

__all__ = ["register_broker", "register_trace"]


def _cmd_broker(args) -> int:
    doc = load_workload_document(args.workload)
    broker = GridBroker.from_document(doc, alpha=args.alpha)
    jobs = broker.resolve_jobs(doc)
    policies = args.policy or list(POLICY_NAMES)
    faults = None
    recovery = args.recovery or "resubmit"
    retry = None
    if args.faults:
        scenario = load_grid_scenario(args.faults)
        faults = scenario.schedule
        retry = scenario.retry
        if args.recovery is None and scenario.recovery is not None:
            recovery = scenario.recovery
    if args.retry_attempts is not None:
        retry = BrokerRetryPolicy.with_attempts(args.retry_attempts)
    report = broker.compare(
        doc.name,
        jobs,
        policies,
        include_uncalibrated=not args.no_calibration_baseline,
        faults=faults,
        recovery=recovery,
        retry=retry,
    )
    print(format_broker(report, schedule=args.schedule))
    if args.report:
        path = report.save(args.report)
        print(f"\nreport written to {path}")
    return 0


def _load_trace(path: str) -> TraceWorkload:
    """A trace from an artifact JSON or (by extension) a ``.gwf`` file."""
    if path.endswith(".gwf"):
        return parse_gwf(path)
    return TraceWorkload.load(path)


def _cmd_trace(args) -> int:
    if args.trace_command == "generate":
        spec = make_preset(args.preset, args.count, seed=args.seed)
        # Deadlines are slack multiples of the best predicted execution
        # time on the reference grid — the grid `repro trace run` uses.
        broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)
        trace = TraceWorkload.from_spec(
            spec, baselines=broker.baseline_estimate
        )
        print(format_trace(trace))
        out = args.output or f"{args.preset}-{args.count}.trace.json"
        path = trace.save(out)
        print(f"\ntrace artifact written to {path}")
        return 0

    if args.trace_command == "load":
        trace = _load_trace(args.source)
        print(format_trace(trace))
        if args.output:
            path = trace.save(args.output)
            print(f"\ntrace artifact written to {path}")
        return 0

    # "run" — broker the trace over the reference grid.
    trace = _load_trace(args.trace)
    broker = GridBroker(
        reference_grid(), REFERENCE_ALLOCATIONS, alpha=args.alpha
    )
    policies = args.policy or ["min-completion"]
    report = broker.compare(
        trace.name,
        list(trace.jobs),
        policies,
        include_uncalibrated=args.calibration_baseline,
    )
    print(format_trace(trace))
    print()
    print(format_broker(report, schedule=args.schedule))
    stats = broker.last_queue_stats
    if stats:
        print(
            f"\nqueue pressure: {stats.get('events', 0)} events, peak event queue "
            f"{stats.get('peak_event_queue_depth', 0)}, peak wait queue "
            f"{stats.get('peak_pending_depth', 0)}"
        )
    if args.report:
        path = report.save(args.report)
        print(f"\nreport written to {path}")
    return 0


def register_broker(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "workload", help="path to a broker workload JSON (see README)"
    )
    p.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        help="policy to run (repeatable; default: all of "
        "min-completion, min-cost, deadline-aware, round-robin)",
    )
    p.add_argument(
        "--no-calibration-baseline", action="store_true",
        help="skip the calibration-off control run",
    )
    p.add_argument(
        "--schedule", action="store_true",
        help="also print the full per-job placement schedule",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="save the full report as canonical JSON",
    )
    p.add_argument(
        "--alpha", type=float, default=0.3,
        help="calibration learning rate in (0, 1] (default 0.3)",
    )
    p.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="grid fault scenario JSON (site outages, pool shrinks, WAN "
        "degradations, transient job failures) applied to every run",
    )
    p.add_argument(
        "--recovery", default=None, metavar="NAME",
        choices=["resubmit", "migrate"],
        help="recovery policy for preempted jobs: resubmit (fresh "
        "attempt elsewhere) or migrate (checkpoint-aware, charges "
        "T_recover); default: the scenario's, else resubmit",
    )
    p.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="override the broker retry budget (attempts per job before "
        "a terminal failure)",
    )
    p.set_defaults(func=_cmd_broker)


def register_trace(p: argparse.ArgumentParser) -> None:
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    gen_p = trace_sub.add_parser(
        "generate", help="expand a named preset into a trace artifact"
    )
    gen_p.add_argument("preset", choices=sorted(TRACE_PRESETS))
    gen_p.add_argument(
        "--count", type=int, default=10000,
        help="total jobs across all VOs (default 10000)",
    )
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="artifact path (default: PRESET-COUNT.trace.json)",
    )
    gen_p.set_defaults(func=_cmd_trace)

    load_p = trace_sub.add_parser(
        "load",
        help="summarize a trace artifact or import a GWA .gwf file",
    )
    load_p.add_argument(
        "source", help="a .trace.json artifact or a .gwf trace file"
    )
    load_p.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also save the (re-fingerprinted) artifact JSON",
    )
    load_p.set_defaults(func=_cmd_trace)

    trun_p = trace_sub.add_parser(
        "run", help="broker a saved trace over the reference grid"
    )
    trun_p.add_argument(
        "trace", help="a .trace.json artifact or a .gwf trace file"
    )
    trun_p.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        help="placement policy (repeatable; default: min-completion)",
    )
    trun_p.add_argument("--alpha", type=float, default=0.3)
    trun_p.add_argument(
        "--calibration-baseline", action="store_true",
        help="also run the calibration-off control",
    )
    trun_p.add_argument("--schedule", action="store_true")
    trun_p.add_argument(
        "--report", default=None, metavar="PATH",
        help="save the full report as canonical JSON",
    )
    trun_p.set_defaults(func=_cmd_trace)
