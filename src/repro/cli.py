"""Command-line interface.

Subcommands
-----------
- ``repro list-workloads`` — the available workloads and dataset sizes.
- ``repro run WORKLOAD -n N -c C [...]`` — execute a workload on the
  simulated grid and print the time breakdown; optionally save the profile.
- ``repro predict PROFILE.json -n N -c C [...]`` — predict a target
  configuration from a saved profile.
- ``repro classify WORKLOAD`` — auto-detect the workload's model classes
  from multiple profile runs (the paper's Section 3.3 procedure).
- ``repro figure FIGID [--fast]`` — reproduce one paper figure.
- ``repro suite [--journal PATH --resume]`` — run the whole evaluation,
  optionally crash-safely on the campaign engine.
- ``repro campaign MANIFEST.json [--resume]`` — run a user-defined
  campaign with a durable journal, watchdog deadlines, and graceful
  SIGINT/SIGTERM checkpointing (exit code 75 = interrupted, resumable).
- ``repro lint [PATHS]`` — the AST-based contract checker enforcing the
  repo's determinism/durability/error-model invariants (see DESIGN.md
  §13); exits non-zero on any non-baselined finding.
- ``repro serve`` — prediction-as-a-service: a seeded simulated smoke
  run by default, the service chaos campaign with ``--chaos``, or a
  real stdlib HTTP server with ``--port`` (see DESIGN.md §15).
- ``repro trace generate|load|run`` — trace-realistic workloads: expand
  a named preset into a fingerprinted trace artifact, import a Grid
  Workload Archive ``.gwf`` file, or broker a saved trace over the
  reference grid (see DESIGN.md §16).

All times are in the simulator's model units (see DESIGN.md).

A command imports only what it runs.  This module's top imports
``argparse``, ``sys`` and :mod:`repro.errors`; :data:`COMMANDS` is the
one table of ``(name, help, register)``, where ``register(subparser)``
adds that command's arguments and imports what their choices and
defaults need; :func:`main` fills in the arguments of the command named
by ``argv[0]`` alone (``repro --help`` and :func:`build_parser` with no
argument fill in all of them); and each ``_cmd_*`` imports its
subsystem when called.  So ``repro lint`` starts without numpy, scipy or
networkx, and ``repro predict`` without the broker or the service.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["COMMANDS", "build_parser", "main"]


def _clusters():
    from repro.workloads.clusters import (
        opteron_infiniband_cluster,
        pentium_myrinet_cluster,
    )

    return {
        "pentium-myrinet": pentium_myrinet_cluster,
        "opteron-infiniband": opteron_infiniband_cluster,
    }


def _models():
    from repro.core import (
        GlobalReductionModel,
        NoCommunicationModel,
        ReductionCommunicationModel,
    )

    return {
        "no-communication": lambda classes: NoCommunicationModel(),
        "reduction-communication": ReductionCommunicationModel,
        "global-reduction": GlobalReductionModel,
    }


def _print_breakdown(breakdown) -> None:
    print(f"  T_disk    = {breakdown.t_disk:10.4f} s")
    print(f"  T_network = {breakdown.t_network:10.4f} s")
    print(
        f"  T_compute = {breakdown.t_compute:10.4f} s "
        f"(T_ro={breakdown.t_ro:.5f}, T_g={breakdown.t_g:.5f})"
    )
    t_ckpt = getattr(breakdown, "t_ckpt", 0.0)
    if t_ckpt:
        print(f"  T_ckpt    = {t_ckpt:10.4f} s")
    print(f"  total     = {breakdown.total:10.4f} s")


def _cmd_list_workloads(_args) -> int:
    from repro.workloads.registry import WORKLOADS

    for name, spec in sorted(WORKLOADS.items()):
        sizes = ", ".join(sorted(spec.dataset_sizes_gb))
        origin = "paper eval" if spec.in_paper_evaluation else "extension"
        print(f"{name:10s} [{origin}]  sizes: {sizes}")
    return 0


def _cmd_run(args) -> int:
    from repro.analysis import format_fault_events
    from repro.core import Profile
    from repro.core.store import save_profile
    from repro.faults import load_scenario
    from repro.middleware import FreerideGRuntime
    from repro.workloads.configs import make_run_config
    from repro.workloads.registry import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload '{args.workload}'", file=sys.stderr)
        return 2
    dataset = spec.make_dataset(args.size)
    cluster = _clusters()[args.cluster]()
    config = make_run_config(
        args.data_nodes,
        args.compute_nodes,
        storage_cluster=cluster,
        bandwidth=args.bandwidth,
    ).with_processes_per_node(args.processes_per_node)
    injector = load_scenario(args.faults) if args.faults else None
    run = FreerideGRuntime(config, faults=injector).execute(
        spec.make_app(), dataset
    )
    print(
        f"{args.workload} on {config.label} ({args.cluster}), "
        f"dataset {dataset.name} ({dataset.nbytes:.0f} model bytes), "
        f"{run.breakdown.num_passes} pass(es):"
    )
    _print_breakdown(run.breakdown)
    if injector is not None:
        print(format_fault_events(run.breakdown))
    if args.save_profile:
        profile = Profile.from_run(config, run.breakdown)
        path = save_profile(profile, args.save_profile)
        print(f"profile saved to {path}")
    return 0


def _cmd_predict(args) -> int:
    from repro.core import ModelClasses, NoCommunicationModel, PredictionTarget
    from repro.core.store import load_profile
    from repro.workloads.configs import make_run_config
    from repro.workloads.registry import WORKLOADS

    profile = load_profile(args.profile)
    spec = WORKLOADS.get(profile.app)
    if args.model == "no-communication":
        model = NoCommunicationModel()
    else:
        if spec is not None:
            classes = ModelClasses.parse(
                spec.natural_object_class, spec.natural_global_class
            )
        else:
            classes = ModelClasses.parse(
                args.object_class, args.global_class
            )
        model = _models()[args.model](classes)

    cluster = _clusters()[args.cluster]()
    config = make_run_config(
        args.data_nodes,
        args.compute_nodes,
        storage_cluster=cluster,
        bandwidth=args.bandwidth,
    )
    dataset_bytes = (
        args.dataset_bytes if args.dataset_bytes else profile.dataset_bytes
    )
    target = PredictionTarget(config=config, dataset_bytes=dataset_bytes)
    predicted = model.predict(profile, target)
    print(
        f"predicting {profile.app} on {config.label} ({args.cluster}) from "
        f"the {profile.label} profile, with the {args.model} model:"
    )
    _print_breakdown(predicted)
    return 0


def _cmd_classify(args) -> int:
    from repro.core import (
        Profile,
        classify_global_reduction,
        classify_object_size,
    )
    from repro.middleware import FreerideGRuntime
    from repro.workloads.configs import make_run_config
    from repro.workloads.registry import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload '{args.workload}'", file=sys.stderr)
        return 2
    sizes = sorted(spec.dataset_sizes_gb, key=spec.dataset_sizes_gb.get)
    runs = [(1, 1, sizes[0]), (1, 4, sizes[0]), (1, 1, sizes[-1])]
    profiles = []
    for n, c, size in runs:
        dataset = spec.make_dataset(size)
        config = make_run_config(n, c)
        result = FreerideGRuntime(config).execute(spec.make_app(), dataset)
        profiles.append(Profile.from_run(config, result.breakdown))
        print(f"  profiled {n}-{c} @ {size}")
    obj_class = classify_object_size(profiles)
    tg_class = classify_global_reduction(profiles)
    print(f"reduction object size class: {obj_class.value}")
    print(f"global reduction time class: {tg_class.value}")
    return 0


def _cmd_figure(args) -> int:
    from repro.analysis import format_experiment
    from repro.workloads.experiments import run_experiment

    result = run_experiment(args.figure, fast=args.fast)
    print(format_experiment(result))
    if args.chart:
        from repro.analysis import error_bar_chart

        print()
        for model in result.models:
            print(error_bar_chart(result, model))
            print()
    return 0


def _cmd_whatif(args) -> int:
    from repro.core import GlobalReductionModel, ModelClasses
    from repro.core.store import load_profile
    from repro.core.whatif import (
        marginal_speedups,
        recommend_nodes,
        sweep_configurations,
    )
    from repro.workloads.configs import PAPER_CONFIG_GRID, make_run_config
    from repro.workloads.registry import WORKLOADS

    profile = load_profile(args.profile)
    spec = WORKLOADS.get(profile.app)
    if spec is not None:
        classes = ModelClasses.parse(
            spec.natural_object_class, spec.natural_global_class
        )
    else:
        classes = ModelClasses.parse("constant", "linear-constant")
    model = GlobalReductionModel(classes)
    cluster = _clusters()[args.cluster]()
    template = make_run_config(1, 1, storage_cluster=cluster,
                               bandwidth=args.bandwidth)

    forecasts = sweep_configurations(
        profile, model, template, PAPER_CONFIG_GRID
    )
    print(f"predicted execution time of {profile.app} per configuration:")
    for f in forecasts:
        print(f"  {f.label:>6} {f.predicted_total:10.4f}s "
              f"({f.node_cost} machines)")
    scale_up = [f for f in forecasts if f.data_nodes == 1]
    print("\nmarginal speedups along the 1-data-node column:")
    for frm, to, speedup in marginal_speedups(scale_up):
        print(f"  {frm} -> {to}: {speedup:.2f}x")
    pick = recommend_nodes(forecasts, tolerance=args.tolerance)
    print(f"\nrecommended (within {100 * args.tolerance:.0f}% of fastest, "
          f"fewest machines): {pick.label} "
          f"at {pick.predicted_total:.4f}s")
    return 0


def _cmd_suite(args) -> int:
    from repro.workloads.suite import run_paper_suite

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.journal:
        from repro.analysis import format_campaign
        from repro.campaign import CampaignRunner, paper_suite_manifest

        manifest = paper_suite_manifest(
            fast=args.fast,
            experiment_ids=args.only or None,
            deadline_s=args.deadline,
        )
        runner = CampaignRunner(
            manifest,
            args.journal,
            results_dir=args.results_dir,
            progress=print,
        )
        report = runner.run(resume=args.resume)
        print()
        print(format_campaign(report))
        if report.ok:
            print("\nall experiments match the paper's claims")
        return report.exit_code

    report = run_paper_suite(
        fast=args.fast,
        experiment_ids=args.only or None,
        progress=print,
    )
    print()
    for line in report.summary_lines():
        print(line)
    if report.ok:
        print("\nall experiments match the paper's claims")
        return 0
    print(f"\n{len(report.failures)} experiment(s) no longer match the paper")
    return 1


def _cmd_campaign(args) -> int:
    from repro.analysis import format_campaign
    from repro.campaign import CampaignRunner, load_manifest
    from repro.faults import RetryPolicy

    manifest = load_manifest(args.manifest)
    journal = args.journal or f"{args.manifest}.journal.json"
    policy = None
    if args.max_attempts is not None:
        policy = RetryPolicy(
            max_attempts=args.max_attempts,
            base_backoff_s=0.0,
            backoff_factor=1.0,
            max_backoff_s=0.0,
        )
    kwargs = dict(
        retry_policy=policy, results_dir=args.results_dir, progress=print
    )
    if args.workers is None or args.workers == 1:
        runner = CampaignRunner(manifest, journal, **kwargs)
    else:
        from repro.campaign import ParallelCampaignRunner

        # Validates the count (a non-positive one is a CampaignError).
        runner = ParallelCampaignRunner(
            manifest, journal, workers=args.workers, **kwargs
        )
    report = runner.run(resume=args.resume)
    print()
    print(format_campaign(report))
    return report.exit_code


def _cmd_broker(args) -> int:
    from repro.analysis import format_broker
    from repro.broker import POLICY_NAMES, GridBroker, load_workload_document
    from repro.faults import BrokerRetryPolicy, load_grid_scenario

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


def _cmd_serve(args) -> int:
    from repro.analysis import format_service_chaos, format_service_metrics
    from repro.service import (
        MonotonicClock,
        PredictionService,
        ResilienceConfig,
        ServiceBackend,
        ServiceCostModel,
        VirtualClock,
        demo_profiles,
        generate_requests,
        serve_sequence,
    )

    if args.chaos:
        from repro.faults.chaos import ServiceChaosSpec, run_service_campaign

        spec = ServiceChaosSpec(requests=args.requests, rate_hz=args.rate)
        report = run_service_campaign(
            seeds=range(args.seed, args.seed + args.cases), spec=spec
        )
        print(format_service_chaos(report))
        return 0 if report.ok else 1

    profiles = demo_profiles()
    config = ResilienceConfig(admission_rate=args.rate, admission_burst=64.0)
    if args.port is not None:
        from repro.service import make_server

        service = PredictionService(
            profiles,
            clock=MonotonicClock(),
            config=config,
            backend=ServiceBackend(ServiceCostModel()),
        )
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port}/v1/  (Ctrl-C to stop)")
        try:
            server.serve_forever(poll_interval=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
        print()
        print(format_service_metrics(service.metrics()))
        return 0

    service = PredictionService(
        profiles,
        clock=VirtualClock(),
        config=config,
        backend=ServiceBackend(ServiceCostModel()),
        campaign_journals={"demo": "service-demo.journal"},
    )
    requests = generate_requests(
        args.seed, args.requests, args.rate, profiles
    )
    responses = serve_sequence(service, requests)
    print(
        f"smoke: served {len(responses)} seeded request(s) "
        f"(seed {args.seed}, {args.rate:g} req/s offered)"
    )
    print(format_service_metrics(service.metrics()))
    return 0


def _load_trace(path: str):
    """A trace from an artifact JSON or (by extension) a ``.gwf`` file."""
    from repro.workloads.traces import TraceWorkload, parse_gwf

    if path.endswith(".gwf"):
        return parse_gwf(path)
    return TraceWorkload.load(path)


def _cmd_trace(args) -> int:
    from repro.analysis import format_trace
    from repro.workloads.traces import (
        REFERENCE_ALLOCATIONS,
        TraceWorkload,
        make_preset,
        reference_grid,
    )

    if args.trace_command == "generate":
        from repro.broker import GridBroker

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
    from repro.analysis import format_broker
    from repro.broker import GridBroker

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
            f"\nqueue pressure ({stats.get('engine', '?')} engine): "
            f"{stats.get('events', 0)} events, peak event queue "
            f"{stats.get('peak_event_queue_depth', 0)}, peak wait queue "
            f"{stats.get('peak_pending_depth', 0)}"
        )
    if args.report:
        path = report.save(args.report)
        print(f"\nreport written to {path}")
    return 0


def _profile_workload(count: int):
    """The pinned profiling workload (deterministic, no wall-clock).

    Four legs, each exercising one declared-hot subsystem: the
    discrete-event simulator, the phased and pipelined middleware
    runtimes (fault-free and with a compute-node crash), and the grid
    broker under site/WAN/transient faults plus one impossible-deadline
    job so the rejection path runs.  ``count`` scales the simulator
    event count and the broker stream so CI can cap the work.
    """
    # Imported here, not in ``run``: module loading must not be profiled.
    import random

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
    from repro.middleware import FreerideGRuntime
    from repro.middleware.pipelined import PipelinedRuntime
    from repro.simgrid.engine import Simulator
    from repro.workloads import make_app, make_dataset
    from repro.workloads.configs import make_run_config
    from repro.workloads.streams import StreamSpec, generate_stream
    from repro.workloads.traces import REFERENCE_ALLOCATIONS, reference_grid

    def run() -> None:
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

    return run


def _cmd_profile(args) -> int:
    import pathlib

    from repro.lint.cli import DEFAULT_PERF_CACHE
    from repro.lint.perf import (
        DEFAULT_PROFILE_NAME,
        analyze_perf,
        build_profile_document,
        cross_validate,
    )
    from repro.lint.perf.profile import collect_call_counts, write_profile

    count = args.count
    if count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2
    root = pathlib.Path(args.root) if args.root else pathlib.Path.cwd()
    for path in args.paths:
        if not pathlib.Path(path).exists():
            print(f"error: no such path '{path}'", file=sys.stderr)
            return 2

    counts = collect_call_counts(_profile_workload(count))
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


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint_command

    # The lint exit-code contract is 0 clean / 1 findings / 2 usage or
    # internal error, matching the standalone ``python -m repro.lint``;
    # letting a LintError bubble to the top-level handler would fold
    # "the tool could not run" into "the tool found problems" (1).
    try:
        return run_lint_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_shares(args) -> int:
    from repro.analysis import format_shares, sweep_shares
    from repro.workloads.configs import make_run_config
    from repro.workloads.registry import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload '{args.workload}'", file=sys.stderr)
        return 2
    dataset = spec.make_dataset(args.size)
    configs = [
        make_run_config(n, c, bandwidth=args.bandwidth)
        for n, c in [(1, 1), (1, 4), (2, 4), (4, 8), (8, 16)]
    ]
    shares = sweep_shares(spec.make_app, dataset, configs)
    print(f"component shares for {args.workload} "
          f"({args.size or spec.default_size}):")
    print(format_shares(shares))
    return 0


def _register_list_workloads(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_list_workloads)


def _register_run(p: argparse.ArgumentParser) -> None:
    from repro.workloads.clusters import DEFAULT_BANDWIDTH

    p.add_argument("workload")
    p.add_argument("-n", "--data-nodes", type=int, default=1)
    p.add_argument("-c", "--compute-nodes", type=int, default=1)
    p.add_argument("--size", default=None, help="dataset size label")
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument("--processes-per-node", type=int, default=1)
    p.add_argument(
        "--cluster", choices=sorted(_clusters()), default="pentium-myrinet"
    )
    p.add_argument("--save-profile", default=None, metavar="PATH")
    p.add_argument(
        "--faults", default=None, metavar="SCENARIO.json",
        help="inject faults from a JSON scenario file (see README)",
    )
    p.set_defaults(func=_cmd_run)


def _register_predict(p: argparse.ArgumentParser) -> None:
    from repro.workloads.clusters import DEFAULT_BANDWIDTH

    p.add_argument("profile", help="path to a saved profile JSON")
    p.add_argument("-n", "--data-nodes", type=int, required=True)
    p.add_argument("-c", "--compute-nodes", type=int, required=True)
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument(
        "--dataset-bytes", type=float, default=None,
        help="target dataset size in model bytes (defaults to the profile's)",
    )
    p.add_argument(
        "--cluster", choices=sorted(_clusters()), default="pentium-myrinet"
    )
    p.add_argument(
        "--model", choices=sorted(_models()), default="global-reduction"
    )
    p.add_argument("--object-class", default="constant")
    p.add_argument("--global-class", default="linear-constant")
    p.set_defaults(func=_cmd_predict)


def _register_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload")
    p.set_defaults(func=_cmd_classify)


def _register_figure(p: argparse.ArgumentParser) -> None:
    from repro.workloads.experiments import EXPERIMENTS

    p.add_argument("figure", choices=sorted(EXPERIMENTS))
    p.add_argument("--fast", action="store_true")
    p.add_argument(
        "--chart", action="store_true", help="also render ASCII bar charts"
    )
    p.set_defaults(func=_cmd_figure)


def _register_suite(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fast", action="store_true")
    p.add_argument(
        "--only", nargs="*", metavar="FIGID",
        help="restrict to specific experiments",
    )
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="run crash-safely on the campaign engine, journaling every "
        "finished experiment to PATH",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted journaled run, re-running only "
        "incomplete experiments (requires --journal)",
    )
    p.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="also save each experiment result JSON under DIR",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog wall-clock deadline per experiment "
        "(journaled runs only)",
    )
    p.set_defaults(func=_cmd_suite)


def _register_campaign(p: argparse.ArgumentParser) -> None:
    p.add_argument("manifest", help="path to a campaign manifest JSON")
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal path (default: MANIFEST.journal.json)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run from its journal",
    )
    p.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="also save each entry's result JSON under DIR",
    )
    p.add_argument(
        "--max-attempts", type=int, default=None,
        help="watchdog attempts per entry before classifying it "
        "timed-out (default: 2, immediate retry)",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run entries on N worker processes; refuses to start "
        "unless every entry point is certified process-pool-safe by "
        "the effect analysis (journals and artifacts stay "
        "byte-identical to a serial run)",
    )
    p.set_defaults(func=_cmd_campaign)


def _register_broker(p: argparse.ArgumentParser) -> None:
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


def _register_trace(p: argparse.ArgumentParser) -> None:
    from repro.workloads.traces.presets import TRACE_PRESETS

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


def _register_profile(p: argparse.ArgumentParser) -> None:
    from repro.lint.perf.ruledefs import DEFAULT_SHARE_THRESHOLD

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


def _register_lint(p: argparse.ArgumentParser) -> None:
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)


def _register_shares(p: argparse.ArgumentParser) -> None:
    from repro.workloads.clusters import DEFAULT_BANDWIDTH

    p.add_argument("workload")
    p.add_argument("--size", default=None)
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.set_defaults(func=_cmd_shares)


def _register_whatif(p: argparse.ArgumentParser) -> None:
    from repro.workloads.clusters import DEFAULT_BANDWIDTH

    p.add_argument("profile", help="path to a saved profile JSON")
    p.add_argument(
        "--cluster", choices=sorted(_clusters()), default="pentium-myrinet"
    )
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=_cmd_whatif)


def _register_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--requests", type=int, default=200,
        help="requests per run (smoke/chaos; default 200)",
    )
    p.add_argument(
        "--rate", type=float, default=600.0,
        help="offered load in requests/s (default 600)",
    )
    p.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (and first chaos seed; default 1)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="run the seeded service chaos campaign and verify the "
        "settle-exactly-once / latency / replay invariants",
    )
    p.add_argument(
        "--cases", type=int, default=3,
        help="chaos seeds to run, starting at --seed (default 3)",
    )
    p.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve real HTTP on PORT (0 = pick a free port) instead "
        "of a simulated run",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=_cmd_serve)


#: The command table: (name, help line, register).  ``register(subparser)``
#: adds that command's arguments and its ``func`` default, importing only
#: what its own choices and defaults need.
COMMANDS: Tuple[
    Tuple[str, str, Callable[[argparse.ArgumentParser], None]], ...
] = (
    ("list-workloads", "list available workloads", _register_list_workloads),
    ("run", "execute a workload on the simulator", _register_run),
    ("predict", "predict from a saved profile", _register_predict),
    (
        "classify",
        "auto-detect a workload's model classes",
        _register_classify,
    ),
    ("figure", "reproduce one paper figure", _register_figure),
    (
        "suite",
        "run every experiment and check the paper's claims",
        _register_suite,
    ),
    (
        "campaign",
        "run a campaign manifest with a durable, resumable journal",
        _register_campaign,
    ),
    (
        "broker",
        "broker a job stream over a grid with prediction-guided "
        "placement and online calibration",
        _register_broker,
    ),
    (
        "trace",
        "trace-realistic workloads: generate presets, import GWF "
        "files, broker saved traces (see DESIGN.md §16)",
        _register_trace,
    ),
    (
        "profile",
        "run the pinned deterministic workload under the call "
        "profiler, write the profile artifact, and cross-validate the "
        "declared hot set against it (see DESIGN.md §18)",
        _register_profile,
    ),
    (
        "lint",
        "check the determinism/durability/error-model contracts "
        "(AST-based; see DESIGN.md §13)",
        _register_lint,
    ),
    (
        "shares",
        "component shares of a workload across configurations",
        _register_shares,
    ),
    (
        "whatif",
        "configuration sweep + node recommendation from a profile",
        _register_whatif,
    ),
    (
        "serve",
        "prediction-as-a-service: seeded smoke run (default), "
        "chaos campaign (--chaos), or a real HTTP server (--port)",
        _register_serve,
    ),
)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs).

    Every command's name and help line is always present; its arguments
    are filled in for ``only`` alone, or for all commands when ``None``.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Performance Prediction Framework for "
            "Grid-Based Data Mining Applications'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, register in COMMANDS:
        command = sub.add_parser(name, help=help_line)
        if only is None or only == name:
            register(command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``repro lint ...`` builds lint's arguments only; anything else in
    # first place (--help, a typo, nothing) gets the full parser.
    named = bool(argv) and argv[0] in [name for name, _, _ in COMMANDS]
    args = build_parser(only=argv[0] if named else None).parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
