"""campaign_journal — the crash-safe campaign engine (`repro campaign`).

A generated manifest of cheap entries (``fig04`` / ``fig09`` on the fast
grid and seeded ``defect`` fault scenarios, about ten milliseconds of
compute each) runs through ``CampaignRunner`` with a journal and a
results directory.  One operation is one entry being settled: computed,
committed to the journal and its result saved.  It is the write-heavy
twin of ``figure_suite``: the same ``workloads`` / ``middleware`` code,
but the journal (re-serialised on every commit), ``core.durable`` and
JSON encoding do most of the work, so a durability or serialisation
change shows here and a kernel change must not.
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Any, Dict, List

from bench.harness import Measurement, Traced, Workload, file_digest, p95
from bench.layers import pipeline_metrics, trace_pipeline
from bench.tracing import Tracer
from bench.workloads.figure_suite import seed_datasets

ENTRIES = 150
SMOKE_ENTRIES = 12
PRODUCTIVE = {"completed", "retried"}


class CampaignJournal(Workload):
    name = "campaign_journal"
    operation = "one campaign entry settled (computed, journaled, result saved)"
    unit = "entries"

    def setup(self) -> None:
        from repro.campaign import CampaignRunner, manifest_from_dict
        from repro.campaign.journal import CampaignJournal as Journal

        self._runner_type = CampaignRunner
        self._journal_type = Journal
        seed_datasets(self.seed)
        self.count = SMOKE_ENTRIES if self.smoke else ENTRIES
        self.manifest = manifest_from_dict(self._manifest_document())
        self.sizes = {"entries": self.count}
        self.runs = 0

    def _manifest_document(self) -> Dict[str, Any]:
        rng = random.Random(self.seed)
        # Equal thirds in a seeded order: the seed must not change how
        # much work the manifest holds, or it shows as run-to-run spread.
        kinds = [i % 3 for i in range(self.count)]
        rng.shuffle(kinds)
        entries: List[Dict[str, Any]] = []
        for i, kind in enumerate(kinds):
            if kind < 2:
                figure = ("fig04", "fig09")[kind]
                entries.append({
                    "id": f"e{i:04d}-{figure}",
                    "experiment_id": figure,
                    "fast": True,
                })
            else:
                entries.append({
                    "id": f"e{i:04d}-defect",
                    "kind": "fault-scenario",
                    "workload": "defect",
                    "fast": True,
                    "scenario": {
                        "seed": rng.randrange(1 << 30),
                        "faults": [{
                            "type": "chunk-read-error",
                            "rate": round(rng.uniform(0.01, 0.1), 4),
                        }],
                    },
                })
        return {"name": f"bench-{self.seed}", "entries": entries}

    def run_campaign(self) -> Dict[str, Any]:
        """One fresh campaign; returns per-entry times and what it left."""
        self.runs += 1
        home = self.scratch / f"campaign-{self.runs}"
        shutil.rmtree(home, ignore_errors=True)
        home.mkdir(parents=True)
        settled: List[float] = []
        runner = self._runner_type(
            self.manifest,
            home / "campaign.journal",
            results_dir=home / "results",
            handle_signals=False,
            progress=lambda _line: settled.append(time.perf_counter()),
        )
        start = time.perf_counter()
        report = runner.run()
        wall = time.perf_counter() - start
        starts = [start] + settled[:-1]
        return {
            "home": home,
            "report": report,
            "wall_s": wall,
            "entry_ms": [(b - a) * 1e3 for a, b in zip(starts, settled)],
        }

    def _check(self, run: Dict[str, Any]) -> List[str]:
        """Exit 0, every result file, journal reloads, resume re-runs nothing."""
        problems = []
        report, home = run["report"], run["home"]
        if report.exit_code != 0:
            problems.append(f"campaign exit code {report.exit_code}")
        results = sorted((home / "results").glob("*.json"))
        if len(results) != self.count:
            problems.append(f"{len(results)} result files for {self.count} entries")
        journal = self._journal_type(home / "campaign.journal")
        records = journal.load(expected_fingerprint=self.manifest.fingerprint())
        if len(records) != self.count:
            problems.append(f"journal reloads {len(records)} of {self.count} records")
        start = time.perf_counter()
        resumed = self._runner_type(
            self.manifest,
            home / "campaign.journal",
            results_dir=home / "results",
            handle_signals=False,
        ).run(resume=True)
        run["resume_s"] = time.perf_counter() - start
        rerun = [o.entry_id for o in resumed.outcomes if o.status != "resumed"]
        if rerun:
            problems.append(f"resume re-ran {len(rerun)} entries")
        run["digest"] = file_digest(sorted((home / "results").glob("*.json")))
        run["journal_bytes"] = (home / "campaign.journal").stat().st_size
        return problems

    @staticmethod
    def _failed(run: Dict[str, Any]) -> int:
        return sum(
            1 for o in run["report"].outcomes if o.status not in PRODUCTIVE
        )

    def measure(self, seconds: float) -> Measurement:
        runs: List[Dict[str, Any]] = []
        with self.window():
            while not runs or sum(r["wall_s"] for r in runs) < seconds:
                runs.append(self.run_campaign())
        problems = self._check(runs[-1])
        return Measurement(
            samples_ms=[ms for r in runs for ms in r["entry_ms"]],
            units=self.count * len(runs),
            attempted=self.count * len(runs),
            failed=sum(self._failed(r) for r in runs),
            digests={"results": runs[-1]["digest"]},
            problems=problems,
            details={"campaign_wall_s": [r["wall_s"] for r in runs]},
        )

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        from repro.analysis import save_result
        from repro.analysis.results_io import result_to_dict
        from repro.workloads.experiments import run_experiment, run_fault_scenario

        untraced = self.run_campaign()
        trace_pipeline(tracer)
        tracer.patch_method(self._runner_type, "run", "campaign.run")
        tracer.patch_method(self._journal_type, "commit", "campaign.journal_commit")
        tracer.patch_function(run_experiment, "workloads.run_experiment")
        tracer.patch_function(run_fault_scenario, "workloads.run_experiment")
        tracer.patch_function(save_result, "analysis.serialize")
        tracer.patch_function(result_to_dict, "analysis.serialize")
        try:
            traced = self.run_campaign()
        finally:
            tracer.unpatch()
        problems = self._check(untraced) + self._check(traced)
        if untraced["digest"] != traced["digest"]:
            problems.append("traced campaign wrote different results")

        experiments = tracer.named("workloads.run_experiment")
        compute_s = sum(s.duration for s in experiments)
        metrics = pipeline_metrics(tracer)
        metrics.update({
            "analysis.serialize_s": sum(
                s.duration for s in tracer.named("analysis.serialize")
                if s.parent is None or s.parent.name != "analysis.serialize"
            ),
            "workloads.experiment_self_s": sum(s.self_s for s in experiments),
            "campaign.entry_p95_ms": p95(untraced["entry_ms"]),
            "campaign.entry_compute_s": compute_s,
            "campaign.runner_overhead_s": traced["wall_s"] - compute_s,
            "campaign.journal_bytes": traced["journal_bytes"],
            "campaign.resume_s": traced["resume_s"],
        })
        return Traced(
            metrics=metrics,
            untraced_ms=[untraced["wall_s"] * 1e3],
            traced_ms=[traced["wall_s"] * 1e3],
            attempted=2 * self.count,
            failed=self._failed(untraced) + self._failed(traced),
            digests={"results": traced["digest"]},
            problems=problems,
        )
