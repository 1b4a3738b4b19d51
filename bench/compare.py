"""``python -m bench.compare A.json B.json`` — A is the parent, B the change.

Both files are run series written by ``--out``.  For every end-to-end
metric on every workload, the bound from ``BENCHMARK.json`` decides one
row: **within bound**, **worse**, or **unresolved** when the run-to-run
spread (interquartile range over median) is wider than the bound, unless
every run of B reads better than every run of A.  Per-layer metrics have
no bound: counts must repeat exactly, the rest are shown as a ratio.
Digests are compared seed by seed.  Comparing two series of the same
commit is the A/A check.  Exit code 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from bench.cli import FORMAT, load_spec

EXACT_UNITS = ("count", "bytes")


def load_series(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        series = json.load(handle)
    if series.get("format") != FORMAT:
        raise SystemExit(f"{path} is not a {FORMAT} document")
    return series["runs"]


def values_of(runs: List[Dict[str, Any]], traced: bool) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        if run["traced"] == traced:
            for name, metric in run["metrics"].items():
                out[(run["workload"], name)].append(metric["value"])
    return out


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The row's word and by how much B's median is worse (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("better" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "within bound"), worse_by


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]]) -> int:
    spec = load_spec()
    worse = 0

    a, b = values_of(a_runs, False), values_of(b_runs, False)
    print(f"{'workload':18s} {'metric':14s} {'A median':>14s} {'B median':>14s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            word, worse_by = verdict(a[key], b[key], metric["better"], metric["bound"])
            worse += word == "worse"
            shown = [
                "n/a" if s is None else f"{s:9.3f}"
                for s in (spread(a[key]), spread(b[key]))
            ]
            print(f"{workload:18s} {metric['name']:14s} "
                  f"{statistics.median(a[key]):14.4f} {statistics.median(b[key]):14.4f} "
                  f"{worse_by:+9.3f} {shown[0]:>9s} {shown[1]:>9s} "
                  f"{metric['bound']:6.2f}  {word} (n={len(a[key])},{len(b[key])})")

    a, b = values_of(a_runs, True), values_of(b_runs, True)
    if a and b:
        print("\nper-layer (no bound; counts must repeat exactly)")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["per_layer"]:
            key = (workload, metric["name"])
            if key not in a or key not in b or not (any(a[key]) or any(b[key])):
                continue
            median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
            if metric["unit"] in EXACT_UNITS:
                word = "same" if set(a[key]) == set(b[key]) else "DIFFERS"
            else:
                word = f"x{median_b / median_a:.3f}" if median_a else "n/a"
            print(f"{workload:18s} {metric['name']:30s} "
                  f"{median_a:16.4f} {median_b:16.4f} {metric['unit']:6s} {word}")

    def digests(runs):
        return {
            (r["workload"], r["environment"]["seed"], r["smoke"], r["traced"], key): value
            for r in runs for key, value in r["digests"].items()
        }

    da, db = digests(a_runs), digests(b_runs)
    drift = sorted(k for k in da.keys() & db.keys() if da[k] != db[k])
    print(f"\ndigests: {len(da.keys() & db.keys())} compared, {len(drift)} differ")
    for workload, seed, smoke, traced, key in drift:
        print(f"  {workload} seed {seed}{' smoke' if smoke else ''}"
              f"{' traced' if traced else ''}: {key} differs")
    incorrect = [r for r in a_runs + b_runs if not r["correct"]]
    for run in incorrect:
        print(f"  {run['workload']} seed {run['environment']['seed']}: "
              f"output checks failed: {run['problems']}")
    return 1 if worse or incorrect else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    return compare(load_series(argv[0]), load_series(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
