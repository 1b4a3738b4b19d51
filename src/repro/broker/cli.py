"""The ``repro broker`` and ``repro trace`` commands.

:data:`repro.cli.COMMANDS` names this module as their owner and calls
``register_<command>(subparser)`` to fill in arguments and handler.
``trace generate|load`` make job streams: a named preset expanded into
a fingerprinted trace artifact, or a Grid Workload Archive ``.gwf`` file
imported and summarized.  ``broker`` consumes one: a workload document
runs over the grid it describes, a trace artifact or a ``.gwf`` file
over the reference grid (DESIGN.md §16).
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import List, Tuple

from repro.analysis import format_broker, format_trace
from repro.broker.engine import GridBroker
from repro.broker.jobs import BrokerJob, parse_workload_document
from repro.broker.policies import POLICY_NAMES
from repro.core.durable import read_json_document
from repro.faults import DEFAULT_BROKER_RETRY_POLICY, load_grid_scenario
from repro.workloads.traces import (
    REFERENCE_ALLOCATIONS,
    TRACE_PRESETS,
    TraceWorkload,
    make_preset,
    parse_gwf,
    reference_grid,
)

__all__ = ["register_broker", "register_trace"]


def _load_stream(
    path: str, alpha: float
) -> Tuple[str, GridBroker, List[BrokerJob]]:
    """The name, broker and jobs of ``repro broker``'s input.

    A ``.gwf`` file and a trace artifact (a JSON document whose ``kind``
    is ``trace-workload``) run on the reference grid; any other JSON
    document is a workload describing its own grid.
    """
    if path.endswith(".gwf"):
        trace = parse_gwf(path)
    else:
        doc = read_json_document(
            path,
            "broker workload",
            remedy="check the path, or regenerate the workload JSON "
            "(see README, 'Prediction-guided brokering') or the trace",
        )
        if doc.get("kind") != "trace-workload":
            workload = parse_workload_document(doc)
            broker = GridBroker.from_document(workload, alpha=alpha)
            return workload.name, broker, broker.resolve_jobs(workload)
        trace = TraceWorkload.from_artifact(doc, path)
    broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS, alpha=alpha)
    return trace.name, broker, list(trace.jobs)


def _cmd_broker(args) -> int:
    name, broker, jobs = _load_stream(args.workload, args.alpha)
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
        retry = replace(
            DEFAULT_BROKER_RETRY_POLICY, max_attempts=args.retry_attempts
        )
    report = broker.compare(
        name,
        jobs,
        args.policy or list(POLICY_NAMES),
        include_uncalibrated=not args.no_calibration_baseline,
        faults=faults,
        recovery=recovery,
        retry=retry,
    )
    print(format_broker(report, schedule=args.schedule))
    stats = broker.last_queue_stats
    print(
        f"\nqueue pressure: {stats['events']} events, peak event queue "
        f"{stats['peak_event_queue_depth']}, peak wait queue "
        f"{stats['peak_pending_depth']}"
    )
    if args.report:
        path = report.save(args.report)
        print(f"\nreport written to {path}")
    return 0


def _cmd_trace(args) -> int:
    if args.trace_command == "generate":
        spec = make_preset(args.preset, args.count, seed=args.seed)
        # Deadlines are slack multiples of the best predicted execution
        # time on the reference grid — the grid `repro broker` runs
        # traces on.
        broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)
        trace = TraceWorkload.from_spec(
            spec, baselines=broker.baseline_estimate
        )
        out = args.output or f"{args.preset}-{args.count}.trace.json"
    else:
        source = args.source
        trace = (
            parse_gwf(source) if source.endswith(".gwf")
            else TraceWorkload.load(source)
        )
        out = args.output
    print(format_trace(trace))
    if out:
        path = trace.save(out)
        print(f"\ntrace artifact written to {path}")
    return 0


def register_broker(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "workload",
        help="a broker workload JSON (see README), a .trace.json "
        "artifact or a .gwf trace file",
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
