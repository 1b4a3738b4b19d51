"""The benchmark command: run a workload, check it, print its metrics.

::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m bench --all --seed N [--trace] [--smoke] --out FILE

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference-core seconds (``bench/refclock.py``); ``--trace 1`` runs the
workload again under spans and reports the per-layer metrics instead, in
plain wall-clock.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
appends the full run document (environment, sizes, samples, digests) to
a JSON file, so one file can hold a series of runs for ``bench.compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import OUT_DIR, REPO_ROOT, SRC
from bench.refclock import ReferenceClock

FORMAT = "repro-bench/1"
SMOKE_SECONDS = 1


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, metric names, units and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy

    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the checkout is not a git repository
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
    }


def peak_rss_mb(who: str) -> float:
    target = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(target).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(
    spec: Dict[str, Any], name: str, seed: int, seconds: float, trace: bool,
    smoke: bool, clock: ReferenceClock,
) -> Dict[str, Any]:
    """One run of one workload in this process; returns its document."""
    from bench import layers
    from bench.tracing import Tracer
    from bench.workloads import WORKLOADS

    scratch = OUT_DIR / f"run-{os.getpid()}"
    workload = WORKLOADS[name](seed, smoke, scratch, clock)
    document: Dict[str, Any] = {
        "workload": name,
        "traced": trace,
        "smoke": smoke,
        "seconds": seconds,
        "operation": workload.operation,
        "unit_of_work": workload.unit,
    }
    try:
        workload.setup()
        if not trace:
            setup = clock.since(clock.started)
            m = workload.measure(seconds)
            clock.stop()
            workload.close()  # a child's peak RSS is readable once it has ended
            window = workload.measured
            metrics = {
                "setup_s": setup.ref_s,
                "work_per_ref_s": m.units / window.ref_s,
                "peak_rss_mb": peak_rss_mb(workload.rss_of),
            }
            document.update(
                attempted=m.attempted, failed=m.failed, problems=m.problems,
                digests=m.digests, details=m.details,
                samples={"count": len(m.samples_ms), "op_ms": m.samples_ms,
                         "op_p50_ms": statistics.median(m.samples_ms),
                         "units": m.units},
                wall_clock={"setup_s": setup.wall_s,
                            "work_per_s": m.units / window.wall_s},
                clock={"setup": dataclasses.asdict(setup),
                       "window": dataclasses.asdict(window)},
            )
        else:
            setup_s = time.perf_counter() - clock.started.at
            tracer = Tracer(name)
            t = workload.trace(tracer, seconds)
            workload.close()
            untraced = statistics.median(t.untraced_ms)
            traced = statistics.median(t.traced_ms)
            table = tracer.layer_table()
            wall = tracer.root_wall_s()
            metrics = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
            metrics.update(t.metrics)
            metrics.update({
                "simgrid.drain_events_per_s": layers.probe_simgrid_drain(seed),
                "core.durable_write_ms": layers.probe_durable_write(scratch, seed),
                "trace.overhead_share": (traced - untraced) / untraced,
                "trace.wall_s": wall,
                "trace.coverage_share": sum(
                    row["self_s"] for layer, row in table.items()
                    if layer in layers.LAYERS
                ) / wall,
                "trace.spans": len(tracer.spans),
            })
            trace_file = OUT_DIR / f"{name}.trace.json"
            tracer.write(trace_file)
            document.update(
                attempted=t.attempted, failed=t.failed,
                problems=t.problems, digests=t.digests,
                details=dict(t.details, setup_s=setup_s),
                layers=table, trace_file=str(trace_file.relative_to(REPO_ROOT)),
                samples={"untraced_ms": t.untraced_ms, "traced_ms": t.traced_ms},
            )
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    problems = document["problems"] + [
        f"{key} is not finite" for key, value in metrics.items()
        if not math.isfinite(value)
    ]
    document.update(
        environment=environment(seed),
        sizes=workload.sizes,
        problems=problems,
        correct=not problems,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    return document


def result_line(document: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    })


def report(document: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the result line."""
    mode = "traced" if document["traced"] else "untraced"
    print(f"== {document['workload']} ({mode}, seed "
          f"{document['environment']['seed']}, {document['seconds']} s) ==")
    for key, metric in document["metrics"].items():
        print(f"{key:34s} {metric['value']:16.6f} {metric['unit']}")
    if not document["traced"]:
        samples, wall = document["samples"], document["wall_clock"]
        print(f"wall-clock: set-up {wall['setup_s']:.3f} s, "
              f"{wall['work_per_s']:.4f} {document['unit_of_work']}/s at core speed "
              f"{document['clock']['window']['speed']:.3f}")
        print(f"operation: {document['operation']}; {samples['count']} samples, "
              f"median {samples['op_p50_ms']:.3f} ms")
    for key, value in document["digests"].items():
        print(f"digest {key:27s} {value}")
    for problem in document["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(result_line(document), flush=True)


def append_run(path: pathlib.Path, document: Dict[str, Any]) -> None:
    """Append one run to the series in ``path`` (created when missing)."""
    series = {"format": FORMAT, "runs": []}
    if path.exists():
        series = json.loads(path.read_text())
        if series.get("format") != FORMAT:
            raise SystemExit(f"{path} is not a {FORMAT} document")
    series["runs"].append(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(series, indent=1, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in a process of its own, so set-up and RSS are its own."""
    status = 0
    for name in names:
        command = [
            sys.executable, str(pathlib.Path(__file__).with_name("run.py")),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", os.path.abspath(args.out)]
        status = max(status, subprocess.run(command, cwd=REPO_ROOT).returncode)
    return status


def main(argv: Optional[List[str]] = None, started: Optional[float] = None) -> int:
    clock = ReferenceClock(time.perf_counter() if started is None else started)
    clock.start()
    try:
        return _main(argv, clock)
    finally:
        clock.stop()


def _main(argv: Optional[List[str]], clock: ReferenceClock) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true",
                       help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True,
                        help="feeds every input generator")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measuring window "
                        f"(default {spec['run_seconds']}; {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: run under spans and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: the whole suite in under 30 s")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the full run document to FILE")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]

    if args.all or args.trace:
        clock.stop()  # per-layer numbers are plain wall-clock
    if args.all:
        return run_all(args, names)
    document = run_workload(
        spec, args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, clock,
    )
    report(document)
    if args.out:
        append_run(pathlib.Path(args.out), document)
    return 0 if document["correct"] else 1
