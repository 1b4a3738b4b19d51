"""broker_trace — brokering a generated trace (`repro trace run`).

Set-up generates a ``gwa-mixed`` trace as ``repro trace generate`` does
and brokers it once on a fresh ``GridBroker``: that cold run is mostly
the memoised middleware executions filling the broker's cache, and is
what a ``repro trace run`` user waits for, so it counts in ``setup_s``.
One operation is one warm ``GridBroker.run`` of the same jobs: pure
``broker`` engine, policy and ``core`` selection work with the kernels
bypassed.  An engine gain and a cache-fill gain land on different
metrics.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

from bench.harness import Measurement, Traced, Workload, file_digest, repeat_for
from bench.layers import pipeline_metrics, trace_pipeline
from bench.tracing import Tracer

PRESET = "gwa-mixed"
#: No EM in its mix, so the smoke cache fill takes seconds, not ten.
SMOKE_PRESET = "poisson"
POLICY = "min-completion"
JOBS = 10_000
SMOKE_JOBS = 300


class BrokerTrace(Workload):
    name = "broker_trace"
    operation = "one warm GridBroker.run of the whole trace"
    unit = "jobs"

    def setup(self) -> None:
        from repro.broker import GridBroker
        from repro.broker.report import BrokerReport
        from repro.workloads.traces import (
            REFERENCE_ALLOCATIONS,
            TraceWorkload,
            make_preset,
            reference_grid,
        )

        self._report_type = BrokerReport
        self._new_broker = lambda: GridBroker(
            reference_grid(), REFERENCE_ALLOCATIONS
        )
        self._make_preset = make_preset
        self._trace_type = TraceWorkload
        self.count = SMOKE_JOBS if self.smoke else JOBS
        self.preset = SMOKE_PRESET if self.smoke else PRESET
        self.sizes = {"preset": self.preset, "jobs": self.count, "policy": POLICY}
        self.scratch.mkdir(parents=True, exist_ok=True)

        start = time.perf_counter()
        self.jobs = self._generate()
        self.trace_gen_s = time.perf_counter() - start

        self.broker = self._new_broker()
        start = time.perf_counter()
        self.cold = self.run_once()
        self.cold_run_s = time.perf_counter() - start

    def _generate(self) -> List[Any]:
        # Deadlines are slack multiples of the best predicted time on the
        # reference grid, estimated by a broker of the generator's own.
        spec = self._make_preset(self.preset, self.count, seed=self.seed)
        trace = self._trace_type.from_spec(
            spec, baselines=self._new_broker().baseline_estimate
        )
        return list(trace.jobs)

    def run_once(self) -> Any:
        return self.broker.run(self.jobs, POLICY)

    def _repeat(self, seconds: float):
        """Warm runs for ``seconds``; keeps only the last run itself.

        Holding every ``PolicyRun`` would grow the heap by the size of a
        report per repetition and slow the later runs' garbage
        collections, so each run is reduced to its job accounting at once.
        """
        kept: Dict[str, Any] = {}

        def operation() -> Dict[str, int]:
            run = kept["last"] = self.run_once()
            return self._account(run)

        samples, accounts = repeat_for(seconds, 3, operation)
        return samples, accounts, kept["last"]

    @staticmethod
    def _account(run: Any) -> Dict[str, int]:
        return {
            "jobs": run.jobs,
            "refused": len(run.rejections) + len(run.failures),
        }

    def _save(self, run: Any) -> str:
        path = self.scratch / "broker-report.json"
        self._report_type(name=self.preset, runs=(run,)).save(path)
        return file_digest([path])

    def _check(self, accounts: List[Dict[str, int]], digests: List[str]) -> List[str]:
        problems = []
        for account in accounts:
            if account["jobs"] != self.count:
                problems.append(
                    f"lost jobs: {account['jobs']} accounted for of {self.count}"
                )
        if len(set(digests)) != 1:
            problems.append("run digest differs between runs")
        return problems

    def measure(self, seconds: float) -> Measurement:
        with self.window():
            samples, accounts, last = self._repeat(seconds)
        # Serialising a report costs about as much as a warm run, so only
        # the cold and the last warm run are serialised and compared;
        # every run is checked for lost jobs.
        digests = [self._save(run) for run in (self.cold, last)]
        accounts.append(self._account(self.cold))
        return Measurement(
            samples_ms=samples,
            units=self.count * len(samples),
            attempted=self.count * len(samples),
            failed=sum(a["refused"] for a in accounts),
            digests={"run": digests[0]},
            problems=self._check(accounts, digests),
            details={
                "trace_gen_s": self.trace_gen_s,
                "cold_run_s": self.cold_run_s,
            },
        )

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        from repro.broker import GridBroker

        untraced_ms, accounts, untraced_last = self._repeat(0.0)

        # A second broker, so the cache fill happens again under spans.
        trace_pipeline(tracer)
        tracer.patch_method(GridBroker, "run", "broker.run")
        try:
            self.broker = self._new_broker()
            start = time.perf_counter()
            cold = self.run_once()
            traced_cold_s = time.perf_counter() - start
            cold_spans = len(tracer.spans)
            traced_ms, traced_accounts, last = self._repeat(0.0)
            stats = dict(self.broker.last_queue_stats)
        finally:
            tracer.unpatch()

        start = time.perf_counter()
        digests = [self._save(run) for run in (untraced_last, cold, last)]
        serialize_s = (time.perf_counter() - start) / len(digests)
        accounts += traced_accounts + [self._account(self.cold), self._account(cold)]

        warm_run_s = statistics.median(untraced_ms) / 1e3
        metrics = pipeline_metrics(tracer)
        metrics.update({
            "workloads.trace_gen_s": self.trace_gen_s,
            "broker.cache_fill_s": self.cold_run_s - warm_run_s,
            "broker.warm_run_s": warm_run_s,
            "broker.events": stats["events"],
            "broker.events_per_s": stats["events"] / warm_run_s,
            "broker.peak_event_queue_depth": stats["peak_event_queue_depth"],
            "broker.peak_pending_depth": stats["peak_pending_depth"],
            "broker.placements": len(last.placements),
            "broker.rejected": len(last.rejections),
            "broker.report_serialize_s": serialize_s,
        })
        return Traced(
            metrics=metrics,
            untraced_ms=untraced_ms,
            traced_ms=traced_ms,
            attempted=self.count * len(accounts),
            failed=sum(a["refused"] for a in accounts),
            digests={"run": digests[0]},
            problems=self._check(accounts, digests),
            details={
                "traced_cold_run_s": traced_cold_s,
                "cold_run_spans": cold_spans,
            },
        )
