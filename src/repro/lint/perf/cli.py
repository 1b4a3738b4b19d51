"""The ``repro profile`` command and the workload it pins.

:data:`repro.cli.COMMANDS` names this module as the command's owner and
calls :func:`register_profile` to fill in its arguments and handler.
The command runs :func:`_profile_workload` under the call profiler,
writes the profile artifact and cross-validates the declared hot set
against it (DESIGN.md §18).  Everything the workload drives is imported
here at module top, so module loading is never profiled; ``repro lint``
does not import this module and still starts without numpy.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import random
import sys

from repro.broker import GridBroker
from repro.broker.jobs import BrokerJob
from repro.faults import (
    ComputeNodeCrash,
    FaultInjector,
    FaultSchedule,
    GridFaultSchedule,
    SiteOutage,
    TransientJobFailure,
    WanDegradation,
)
from repro.lint.cli import DEFAULT_PERF_CACHE
from repro.lint.perf.api import analyze_perf
from repro.lint.perf.profile import (
    DEFAULT_PROFILE_NAME,
    build_profile_document,
    collect_call_counts,
    cross_validate,
    write_profile,
)
from repro.lint.perf.ruledefs import DEFAULT_SHARE_THRESHOLD
from repro.middleware import FreerideGRuntime
from repro.middleware.pipelined import PipelinedRuntime
from repro.simgrid.engine import Simulator
from repro.workloads import make_app, make_dataset
from repro.workloads.configs import make_run_config
from repro.workloads.traces import REFERENCE_ALLOCATIONS, reference_grid
from repro.workloads.traces.generate import StreamSpec, generate_stream

__all__ = ["register_profile"]


def _profile_workload(count: int) -> None:
    """The pinned profiling workload (deterministic, no wall-clock).

    Four legs, each exercising one declared-hot subsystem: the
    discrete-event simulator, the phased and pipelined middleware
    runtimes (fault-free and with a compute-node crash), and the grid
    broker under site/WAN/transient faults plus one impossible-deadline
    job so the rejection path runs.  ``count`` scales the simulator
    event count and the broker stream so CI can cap the work.
    """
    sim = Simulator()
    sink: list = []
    rng = random.Random(7)
    events = [
        sim.schedule(rng.uniform(0.0, 100.0), sink.append, i)
        for i in range(count * 5)
    ]
    for i, event in enumerate(events):
        if i % 7 == 0:
            event.cancel()
    sim.run()

    config = make_run_config(2, 4)
    dataset = make_dataset("kmeans")
    FreerideGRuntime(config).execute(make_app("kmeans"), dataset)
    PipelinedRuntime(config).execute(make_app("kmeans"), dataset)
    injector = FaultInjector(FaultSchedule([ComputeNodeCrash(0, 1)]))
    FreerideGRuntime(config, faults=injector).execute(
        make_app("kmeans"), dataset
    )

    grid = reference_grid()
    compute = [site.name for site in grid.compute_sites()]
    broker = GridBroker(grid, REFERENCE_ALLOCATIONS)
    spec = StreamSpec(
        count=count,
        seed=11,
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
    jobs = generate_stream(spec, baselines=broker.baseline_estimate)
    jobs.append(
        BrokerJob(
            job_id="doomed",
            workload="kmeans",
            arrival=0.0,
            deadline=1e-6,
        )
    )
    schedule = GridFaultSchedule(
        [
            SiteOutage(site=compute[0], at=0.5, repair_after=1.0),
            WanDegradation(
                site_a=compute[0],
                site_b=compute[1],
                factor=2.0,
                at=0.0,
                duration=5.0,
            ),
            TransientJobFailure(job_id=jobs[0].job_id, failures=1),
        ]
    )
    broker.compare(
        "profile",
        jobs,
        ["min-completion", "deadline-aware"],
        faults=schedule,
        recovery="migrate",
    )


def _cmd_profile(args) -> int:
    count = args.count
    if count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 < args.threshold <= 1.0:
        print("error: --threshold must be in (0, 1]", file=sys.stderr)
        return 2
    root = pathlib.Path(args.root) if args.root else pathlib.Path.cwd()
    for path in args.paths:
        if not pathlib.Path(path).exists():
            print(f"error: no such path '{path}'", file=sys.stderr)
            return 2

    counts = collect_call_counts(functools.partial(_profile_workload, count))
    document = build_profile_document(
        counts,
        workload=f"pinned-v1:count={count}",
        threshold=args.threshold,
    )
    output = args.output or str(root / DEFAULT_PROFILE_NAME)
    if not args.check:
        write_profile(output, document)
        print(
            f"call profile written to {output} "
            f"({document['total_calls']} calls, "
            f"{len(document['functions'])} function(s))"
        )
    else:
        print(
            f"call profile collected ({document['total_calls']} calls, "
            f"{len(document['functions'])} function(s)); --check: "
            "not written"
        )

    result = analyze_perf(
        list(args.paths),
        root=root,
        cache_path=str(root / DEFAULT_PERF_CACHE),
        certificate_path=None,
        profile_path=None,
    )
    agreement = cross_validate(
        document,
        hot_region=result.analysis.hot_region,
        declared=result.analysis.hot_entries,
        known=frozenset(result.analysis.locations),
    )
    print(
        f"declared hot entries: {len(result.analysis.hot_entries)}, "
        f"static hot region: {len(result.analysis.hot_region)}, "
        f"threshold: {agreement.threshold:.2%}"
    )
    for qualname, share in agreement.undeclared_hot:
        print(
            f"  MEASURED-NOT-DECLARED {qualname} "
            f"({share:.2%} of profiled calls)"
        )
    for qualname in agreement.unreached_declared:
        print(f"  DECLARED-NOT-REACHED  {qualname} (0 profiled calls)")
    if agreement.agrees:
        print("declared and measured hot sets agree in both directions")
        return 0
    print(
        f"hot-set disagreement: {len(agreement.undeclared_hot)} "
        f"measured-not-declared, {len(agreement.unreached_declared)} "
        "declared-not-reached"
    )
    return 1


def register_profile(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "paths", nargs="*", default=["src/repro"], metavar="PATH",
        help="files or directories the static hot-set analysis covers "
        "(default: src/repro)",
    )
    p.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="profile artifact path (default: ROOT/.repro-profile.json)",
    )
    p.add_argument(
        "--count", type=int, default=40,
        help="workload scale: broker jobs and simulator events/5 "
        "(default 40; CI smoke passes a smaller value)",
    )
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_SHARE_THRESHOLD,
        help="call-share at or above which a function counts as "
        f"measured-hot (default {DEFAULT_SHARE_THRESHOLD})",
    )
    p.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory artifacts live under (default: cwd)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="cross-validate only; do not write the profile artifact",
    )
    p.set_defaults(func=_cmd_profile)
