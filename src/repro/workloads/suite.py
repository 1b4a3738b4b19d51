"""One-call reproduction of the paper's entire evaluation.

``run_paper_suite`` executes every registered experiment (Figures 2-13
plus the extension experiments), checks each against its recorded
:class:`~repro.analysis.expectations.FigureExpectation`, and returns a
:class:`SuiteReport`.  The CLI exposes it as ``repro suite``.

This is the plain in-memory loop.  The crash-safe variant — durable
journal, ``--resume``, per-experiment deadlines — is ``repro suite
--journal``, which runs
:func:`~repro.campaign.manifest.paper_suite_manifest` on the campaign
engine (:mod:`repro.campaign`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.analysis.expectations import EXPECTATIONS, check_expectation
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "SuiteEntry",
    "SuiteReport",
    "run_paper_suite",
]


@dataclass(frozen=True)
class SuiteEntry:
    """Outcome of one experiment within a suite run."""

    experiment_id: str
    result: ExperimentResult
    violations: List[str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        """True when every recorded claim of the paper held."""
        return not self.violations


@dataclass
class SuiteReport:
    """All experiments of one suite run."""

    entries: List[SuiteEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the whole reproduction matches the paper."""
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> List[SuiteEntry]:
        """Entries with violated claims."""
        return [entry for entry in self.entries if not entry.ok]

    def entry(self, experiment_id: str) -> SuiteEntry:
        for candidate in self.entries:
            if candidate.experiment_id == experiment_id:
                return candidate
        raise ConfigurationError(f"no suite entry for '{experiment_id}'")

    def summary_lines(self) -> List[str]:
        """One status line per experiment (for the CLI)."""
        lines = []
        for entry in self.entries:
            status = "ok" if entry.ok else "MISMATCH"
            lines.append(
                f"{entry.experiment_id:14s} {status:8s} "
                f"({entry.elapsed_s:5.1f}s)  {entry.result.title}"
            )
            for violation in entry.violations:
                lines.append(f"{'':14s} !! {violation}")
        return lines


def run_paper_suite(
    fast: bool = False,
    experiment_ids: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SuiteReport:
    """Run experiments (all by default) and check the paper's claims.

    ``fast=True`` uses the reduced configuration grid — quick smoke
    coverage; the claims that need the full grid are skipped
    automatically by the checker.
    """
    ids = list(experiment_ids) if experiment_ids else sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(f"unknown experiments: {unknown}")

    report = SuiteReport()
    for experiment_id in ids:
        start = time.perf_counter()
        result = run_experiment(experiment_id, fast=fast)
        elapsed = time.perf_counter() - start
        violations = (
            check_expectation(result)
            if experiment_id in EXPECTATIONS
            else []
        )
        report.entries.append(
            SuiteEntry(
                experiment_id=experiment_id,
                result=result,
                violations=violations,
                elapsed_s=elapsed,
            )
        )
        if progress is not None:
            status = "ok" if not violations else "MISMATCH"
            progress(f"{experiment_id} {status} ({elapsed:.1f}s)")
    return report
