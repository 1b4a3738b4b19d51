"""Benchmark harness fixtures.

``bench_figures.py`` regenerates every figure of the paper on the full
14-configuration grid, prints the error table a reader can compare against
the paper, and writes it to ``benchmarks/results/<figure>.txt``.

Run with::

    pytest benchmarks/ --benchmark-only

The timing reported by pytest-benchmark is the wall time of the whole
figure reproduction (profile run + 14 actual runs + predictions); the
interesting output is the table, shown with ``-s`` or found under
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib
from typing import List

import pytest

from repro.analysis import (
    compare_results,
    format_experiment,
    load_result,
    save_result,
)
from repro.analysis.expectations import EXPECTATIONS, check_expectation
from repro.core.durable import atomic_write_text
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import ExperimentResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def baseline_drift(baseline: ExperimentResult, fresh: ExperimentResult) -> List[str]:
    """What moved between a committed baseline and a fresh run."""
    try:
        deltas = compare_results(baseline, fresh, threshold=1e-9)
    except ConfigurationError as exc:
        return [str(exc)]
    return [
        f"{d.label} {d.model}: error {d.baseline_error:.6%} -> {d.current_error:.6%}"
        for d in deltas
    ]


@pytest.fixture
def figure_report():
    """Print a reproduced figure, persist it, and check it.

    The figure table goes to ``benchmarks/results/<figure>.txt`` and a
    machine-readable JSON copy next to it.  The committed JSON is the
    fidelity baseline: it is loaded before being overwritten and any
    cell whose error moved fails the bench.  The fresh files are written
    either way, so ``git diff benchmarks/results`` shows exactly what
    moved and committing that diff is how a change is accepted.  A figure
    with no baseline yet is written, not failed.  Any violated claim of
    the figure's :class:`~repro.analysis.expectations.FigureExpectation`
    fails the bench too.
    """

    def report(result: ExperimentResult) -> None:
        text = format_experiment(result)
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        stem = f"{result.experiment_id}_{result.workload}"
        baseline_path = RESULTS_DIR / f"{stem}.json"
        baseline = load_result(baseline_path) if baseline_path.exists() else None
        atomic_write_text(RESULTS_DIR / f"{stem}.txt", text + "\n")
        save_result(result, baseline_path)

        if baseline is not None:
            moved = baseline_drift(baseline, result)
            assert not moved, (
                f"{result.experiment_id} moved against {baseline_path.name}: "
                + "; ".join(moved)
            )
        if result.experiment_id in EXPECTATIONS:
            violations = check_expectation(result)
            assert not violations, (
                f"{result.experiment_id} no longer matches the paper: "
                + "; ".join(violations)
            )

    return report


def run_once(benchmark, fn):
    """Execute a deterministic experiment exactly once under the timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
