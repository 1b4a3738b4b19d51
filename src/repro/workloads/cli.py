"""The workload commands of ``repro``: ``list-workloads``, ``run``,
``predict``, ``classify``, ``figure``, ``suite``, ``shares``, ``whatif``.

:data:`repro.cli.COMMANDS` names this module as their owner and calls
``register_<command>(subparser)``, which adds that command's arguments
and its handler.  The module top imports what these commands share —
the workload registry, the configuration grid, the clusters and the
core model; a command that alone drives something heavier (the runtime
and fault injection, the experiment grid, the campaign engine, a report
formatter) imports it when called, so ``repro predict`` loads no
broker, service, linter or campaign engine.  ``repro suite`` runs the
paper suite on the campaign engine in every mode; without ``--journal``
its journal is a scratch file deleted when the run ends.

All times are in the simulator's model units (see DESIGN.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core import (
    GlobalReductionModel,
    ModelClasses,
    NoCommunicationModel,
    PredictionTarget,
    Profile,
    ReductionCommunicationModel,
    classify_global_reduction,
    classify_object_size,
)
from repro.core.store import load_profile, save_profile
from repro.core.whatif import (
    marginal_speedups,
    recommend_nodes,
    sweep_configurations,
)
from repro.workloads.clusters import CLUSTERS, DEFAULT_BANDWIDTH
from repro.workloads.configs import PAPER_CONFIG_GRID, make_run_config
from repro.workloads.registry import WORKLOADS, WorkloadSpec

__all__ = [
    "register_list_workloads",
    "register_run",
    "register_predict",
    "register_classify",
    "register_figure",
    "register_suite",
    "register_shares",
    "register_whatif",
]

_MODELS = {
    "no-communication": lambda classes: NoCommunicationModel(),
    "reduction-communication": ReductionCommunicationModel,
    "global-reduction": GlobalReductionModel,
}


def _workload(name: str) -> Optional[WorkloadSpec]:
    """The named workload, or ``None`` after saying so (callers exit 2)."""
    spec = WORKLOADS.get(name)
    if spec is None:
        print(f"unknown workload '{name}'", file=sys.stderr)
    return spec


def _natural_classes(
    app: str, object_class: str, global_class: str
) -> ModelClasses:
    """A registered app's own model classes, else the ones given."""
    spec = WORKLOADS.get(app)
    if spec is not None:
        object_class = spec.natural_object_class
        global_class = spec.natural_global_class
    return ModelClasses.parse(object_class, global_class)


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
    for name, spec in sorted(WORKLOADS.items()):
        sizes = ", ".join(sorted(spec.dataset_sizes_gb))
        origin = "paper eval" if spec.in_paper_evaluation else "extension"
        print(f"{name:10s} [{origin}]  sizes: {sizes}")
    return 0


def _cmd_run(args) -> int:
    from repro.analysis import format_fault_events
    from repro.faults import load_scenario
    from repro.middleware import FreerideGRuntime

    spec = _workload(args.workload)
    if spec is None:
        return 2
    dataset = spec.make_dataset(args.size)
    config = make_run_config(
        args.data_nodes,
        args.compute_nodes,
        storage_cluster=CLUSTERS[args.cluster](),
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
    profile = load_profile(args.profile)
    classes = None
    if args.model != "no-communication":
        classes = _natural_classes(
            profile.app, args.object_class, args.global_class
        )
    model = _MODELS[args.model](classes)
    config = make_run_config(
        args.data_nodes,
        args.compute_nodes,
        storage_cluster=CLUSTERS[args.cluster](),
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
    from repro.middleware import FreerideGRuntime

    spec = _workload(args.workload)
    if spec is None:
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
    profile = load_profile(args.profile)
    model = GlobalReductionModel(
        _natural_classes(profile.app, "constant", "linear-constant")
    )
    template = make_run_config(
        1, 1, storage_cluster=CLUSTERS[args.cluster](),
        bandwidth=args.bandwidth,
    )
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
    import pathlib
    import tempfile

    from repro.analysis import format_campaign
    from repro.campaign import CampaignRunner, paper_suite_manifest

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    manifest = paper_suite_manifest(
        fast=args.fast,
        experiment_ids=args.only or None,
        deadline_s=args.deadline,
    )
    with tempfile.TemporaryDirectory() as scratch:
        # Without --journal the journal is scratch, gone when the run
        # ends, so Ctrl-C stays a plain interrupt: no handler promises
        # a --resume it could not honour.
        runner = CampaignRunner(
            manifest,
            args.journal or pathlib.Path(scratch, "suite.journal"),
            results_dir=args.results_dir,
            handle_signals=args.journal is not None,
            progress=print,
        )
        report = runner.run(resume=args.resume)
    print()
    print(format_campaign(report))
    if report.ok:
        print("\nall experiments match the paper's claims")
    return report.exit_code


def _cmd_shares(args) -> int:
    from repro.analysis import format_shares, sweep_shares

    spec = _workload(args.workload)
    if spec is None:
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


def register_list_workloads(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_list_workloads)


def register_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload")
    p.add_argument("-n", "--data-nodes", type=int, default=1)
    p.add_argument("-c", "--compute-nodes", type=int, default=1)
    p.add_argument("--size", default=None, help="dataset size label")
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument("--processes-per-node", type=int, default=1)
    p.add_argument(
        "--cluster", choices=sorted(CLUSTERS), default="pentium-myrinet"
    )
    p.add_argument("--save-profile", default=None, metavar="PATH")
    p.add_argument(
        "--faults", default=None, metavar="SCENARIO.json",
        help="inject faults from a JSON scenario file (see README)",
    )
    p.set_defaults(func=_cmd_run)


def register_predict(p: argparse.ArgumentParser) -> None:
    p.add_argument("profile", help="path to a saved profile JSON")
    p.add_argument("-n", "--data-nodes", type=int, required=True)
    p.add_argument("-c", "--compute-nodes", type=int, required=True)
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument(
        "--dataset-bytes", type=float, default=None,
        help="target dataset size in model bytes (defaults to the profile's)",
    )
    p.add_argument(
        "--cluster", choices=sorted(CLUSTERS), default="pentium-myrinet"
    )
    p.add_argument(
        "--model", choices=sorted(_MODELS), default="global-reduction"
    )
    p.add_argument("--object-class", default="constant")
    p.add_argument("--global-class", default="linear-constant")
    p.set_defaults(func=_cmd_predict)


def register_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload")
    p.set_defaults(func=_cmd_classify)


def register_figure(p: argparse.ArgumentParser) -> None:
    from repro.workloads.experiments import EXPERIMENTS

    p.add_argument("figure", choices=sorted(EXPERIMENTS))
    p.add_argument("--fast", action="store_true")
    p.add_argument(
        "--chart", action="store_true", help="also render ASCII bar charts"
    )
    p.set_defaults(func=_cmd_figure)


def register_suite(p: argparse.ArgumentParser) -> None:
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
        help="watchdog wall-clock deadline per experiment",
    )
    p.set_defaults(func=_cmd_suite)


def register_shares(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload")
    p.add_argument("--size", default=None)
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.set_defaults(func=_cmd_shares)


def register_whatif(p: argparse.ArgumentParser) -> None:
    p.add_argument("profile", help="path to a saved profile JSON")
    p.add_argument(
        "--cluster", choices=sorted(CLUSTERS), default="pentium-myrinet"
    )
    p.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=_cmd_whatif)
