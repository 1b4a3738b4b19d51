"""lint_gate — the developer-facing gate (`repro lint --flow --effects --perf`).

The linter from ``src/`` runs as a subprocess on a **frozen corpus**:
``bench/corpus/repro-src.tar.xz`` holds ``src/repro`` and the lint
artefacts as they were when the benchmark was defined, so deleting lint
code later cannot shrink the linter's own input.  Set-up unpacks it and
lints it once with the caches deleted: that cold run parses and extracts
every file and, like the broker's cache fill, counts in ``setup_s``.
One operation is one warm run, which reads the caches instead.  Cold and
warm are the same layer used two ways, so a cache change that helps one
and costs the other shows.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tarfile
import time
from typing import Any, Dict, List, Optional

from bench import SRC
from bench.harness import Measurement, Traced, Workload, digest, repeat_for
from bench.tracing import Tracer, call

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "repro-src.tar.xz"
CACHES = (
    ".repro-flow-cache.json",
    ".repro-effects-cache.json",
    ".repro-perf-cache.json",
)
#: The smoke corpus is one sub-package, so it lints in about a second.
SMOKE_SCOPE = "src/repro/core"
SCOPE = "src/repro"
RUN_TIMEOUT_S = 120


class LintGate(Workload):
    name = "lint_gate"
    operation = "one warm `repro lint` subprocess run over the corpus"
    unit = "files"
    rss_of = "children"

    def setup(self) -> None:
        self.root = self.scratch / "corpus"
        self.root.mkdir(parents=True, exist_ok=True)
        with tarfile.open(CORPUS) as archive:
            archive.extractall(self.root, filter="data")
        self.scope = SMOKE_SCOPE if self.smoke else SCOPE
        self.files = len(list((self.root / self.scope).rglob("*.py")))
        self.sizes = {"scope": self.scope, "files": self.files}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.delete_caches()
        start = time.perf_counter()
        self.cold = self.lint_once()
        self.cold_s = time.perf_counter() - start
        if self.cold["report"] is None:
            raise RuntimeError(
                f"`repro lint` exited {self.cold['exit']} without a report: "
                + self.cold["stderr"].strip()[-300:]
            )

    def delete_caches(self) -> None:
        for name in CACHES:
            (self.root / name).unlink(missing_ok=True)

    def lint_once(self) -> Dict[str, Any]:
        """One `repro lint` child; returns its exit code and JSON report."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", self.scope,
             "--root", ".", "--flow", "--effects", "--perf",
             "--baseline", "lint-baseline.json", "--format", "json"],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        report: Optional[Dict[str, Any]] = None
        if done.returncode in (0, 1):
            try:
                report = json.loads(done.stdout)
            except ValueError:
                pass  # exit 1 with a traceback instead of a report
        return {"exit": done.returncode, "report": report, "stderr": done.stderr}

    def _check(self, runs: List[Dict[str, Any]]) -> List[str]:
        problems = []
        for run in runs:
            if run["report"] is None:
                problems.append(
                    f"lint exited {run['exit']}: {run['stderr'].strip()[-200:]}"
                )
            elif run["report"]["summary"]["files_scanned"] != self.files:
                problems.append(
                    f"lint scanned {run['report']['summary']['files_scanned']} "
                    f"files, the corpus has {self.files}"
                )
        if len({digest(run["report"]) for run in runs}) != 1:
            problems.append("warm findings differ from cold findings")
        return problems

    def measure(self, seconds: float) -> Measurement:
        with self.window():
            samples, runs = repeat_for(seconds, 3, self.lint_once)
        failed = sum(1 for run in runs if run["report"] is None)
        return Measurement(
            samples_ms=samples,
            units=self.files * (len(runs) - failed),
            attempted=len(runs),
            failed=failed,
            digests={"findings": digest(self.cold["report"])},
            problems=self._check([self.cold] + runs),
            details={"cold_s": self.cold_s},
        )

    # -- the traced run: the four passes called directly, cold then warm --

    def _passes(self, tracer: Optional[Tracer]) -> int:
        """What `repro lint` runs, in its order; returns the finding count."""
        from repro.lint.effects import analyze_effects
        from repro.lint.engine import lint_paths
        from repro.lint.flow import analyze_paths
        from repro.lint.perf import analyze_perf

        root = self.root
        paths = [str(root / self.scope)]
        certificate = str(root / ".repro-effects.json")
        findings = len(call(tracer, "lint.rules", lint_paths, paths, root=root))
        findings += len(call(
            tracer, "lint.flow", analyze_paths, paths, root=root,
            cache_path=str(root / CACHES[0]),
        ).findings)
        findings += len(call(
            tracer, "lint.effects", analyze_effects, paths, root=root,
            cache_path=str(root / CACHES[1]), certificate_path=certificate,
        ).findings)
        findings += len(call(
            tracer, "lint.perf", analyze_perf, paths, root=root,
            cache_path=str(root / CACHES[2]), certificate_path=certificate,
            profile_path=str(root / ".repro-profile.json"),
        ).findings)
        return findings

    def _cold_then_warm(self, tracer: Optional[Tracer]) -> tuple[float, int, int]:
        self.delete_caches()
        start = time.perf_counter()
        cold = self._passes(tracer)
        warm = self._passes(tracer)
        return (time.perf_counter() - start) * 1e3, cold, warm

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        start = time.perf_counter()
        listed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            env=self.env, capture_output=True, timeout=RUN_TIMEOUT_S,
        )
        startup_s = time.perf_counter() - start

        untraced_ms, _, _ = self._cold_then_warm(None)
        traced_ms, cold, warm = self._cold_then_warm(tracer)

        problems = self._check([self.cold])
        if listed.returncode != 0:
            problems.append(f"`repro lint --list-rules` exited {listed.returncode}")
        reported = self.cold["report"]
        in_report = len(reported["findings"]) + len(reported["suppressed"])
        if not cold == warm == in_report:
            problems.append(
                f"findings differ: {cold} cold, {warm} warm in-process, "
                f"{in_report} from the command"
            )

        metrics: Dict[str, float] = {
            "lint.startup_s": startup_s,
            "lint.files": self.files,
            "lint.findings": cold,
            "lint.cache_bytes": sum(
                (self.root / name).stat().st_size for name in CACHES
            ),
        }
        for layer_pass in ("rules", "flow", "effects", "perf"):
            first, second = tracer.named(f"lint.{layer_pass}")
            metrics[f"lint.{layer_pass}_s"] = first.duration
            metrics[f"lint.{layer_pass}_warm_s"] = second.duration
        return Traced(
            metrics=metrics,
            untraced_ms=[untraced_ms],
            traced_ms=[traced_ms],
            attempted=1,
            failed=0,
            digests={"findings": digest(reported)},
            problems=problems,
            details={"cold_s": self.cold_s},
        )
