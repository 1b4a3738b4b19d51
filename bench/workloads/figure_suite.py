"""figure_suite — the paper-reproduction path (`repro suite` / `repro figure`).

One operation is one pass over the pinned experiment subset, doing what
``repro figure`` does per experiment: run it on the fast grid, check the
paper's claims, format the table and save the result.  About nine tenths
of a pass is real NumPy kernels (``apps``) plus ``datagen``; the model
(``core``) and the event engine (``simgrid``) are near zero, so kernel,
datagen and middleware work shows here and broker, service or lint work
must not.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from bench.harness import Measurement, Traced, Workload, file_digest, repeat_for
from bench.layers import pipeline_metrics, trace_pipeline
from bench.tracing import Tracer, call

#: All six applications: kmeans, vortex, em, knn, defect, apriori.
EXPERIMENTS = ("fig02", "fig03", "fig05", "fig06", "fig08", "ext-apriori")
SMOKE_EXPERIMENTS = ("fig03", "fig04", "fig08")


def seed_datasets(seed: int) -> None:
    """Shift every registered workload's dataset seed by ``seed``.

    The registry pins one dataset seed per application; the benchmark
    replaces each entry with a copy seeded from ``--seed`` so the
    program only ever sees generated inputs.
    """
    from repro.workloads.registry import WORKLOADS

    for name, spec in list(WORKLOADS.items()):
        WORKLOADS[name] = dataclasses.replace(spec, seed=spec.seed + seed)


class FigureSuite(Workload):
    name = "figure_suite"
    operation = "one pass over the experiment subset"
    unit = "experiments"

    def setup(self) -> None:
        from repro.analysis import format_experiment, save_result
        from repro.analysis.expectations import EXPECTATIONS, check_expectation
        from repro.workloads.experiments import run_experiment

        self._run_experiment = run_experiment
        self._check_expectation = check_expectation
        self._expectations = EXPECTATIONS
        self._format_experiment = format_experiment
        self._save_result = save_result
        self.experiments = SMOKE_EXPERIMENTS if self.smoke else EXPERIMENTS
        self.results_dir = self.scratch / "figures"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        seed_datasets(self.seed)
        self.sizes = {"experiments": list(self.experiments), "grid": "fast"}

    def one_pass(self, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        """Run the subset once; returns the output digest and violations."""
        violations: List[str] = []
        paths = []
        for experiment_id in self.experiments:
            result = call(
                tracer, "workloads.run_experiment",
                self._run_experiment, experiment_id, fast=True,
            )
            if experiment_id in self._expectations:
                found = call(
                    tracer, "analysis.check_expectation",
                    self._check_expectation, result,
                )
                violations.extend(f"{experiment_id}: {v}" for v in found)
            text = call(tracer, "analysis.serialize", self._format_experiment, result)
            if not text:
                violations.append(f"{experiment_id}: empty report")
            path = self.results_dir / f"{experiment_id}.json"
            call(tracer, "analysis.serialize", self._save_result, result, path)
            paths.append(path)
        return {"digest": file_digest(paths), "violations": violations}

    def _check(self, passes: List[Dict[str, Any]]) -> List[str]:
        problems = [v for p in passes for v in p["violations"]]
        if len({p["digest"] for p in passes}) != 1:
            problems.append("row digest differs between passes")
        return problems

    def measure(self, seconds: float) -> Measurement:
        with self.window():
            samples, passes = repeat_for(seconds, 2, self.one_pass)
        attempted = len(passes) * len(self.experiments)
        return Measurement(
            samples_ms=samples,
            units=attempted,
            attempted=attempted,
            failed=sum(len(p["violations"]) for p in passes),
            digests={"rows": passes[0]["digest"]},
            problems=self._check(passes),
        )

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        untraced_ms, untraced = repeat_for(0.0, 1, self.one_pass)
        trace_pipeline(tracer)
        try:
            traced_ms, traced = repeat_for(0.0, 1, lambda: self.one_pass(tracer))
        finally:
            tracer.unpatch()
        passes = untraced + traced
        problems = self._check(passes)
        metrics = pipeline_metrics(tracer)
        metrics["analysis.serialize_s"] = sum(
            s.duration for s in tracer.named("analysis.serialize")
        )
        metrics["workloads.experiment_self_s"] = sum(
            s.self_s for s in tracer.named("workloads.run_experiment")
        )
        return Traced(
            metrics=metrics,
            untraced_ms=untraced_ms,
            traced_ms=traced_ms,
            attempted=len(passes) * len(self.experiments),
            failed=sum(len(p["violations"]) for p in passes),
            digests={"rows": passes[0]["digest"]},
            problems=problems,
        )
