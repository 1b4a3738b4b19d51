"""The perf layer's entry point: files in, REP301-REP304 findings out.

:class:`PerfPass` is the layer as a scan pass (see
:mod:`repro.lint.summaries` for the shared cache-or-extract pipeline);
``analyze_perf`` runs it alone, ``repro lint`` runs it beside the other
passes in one scan.  The declared hot set is closed over the call graph
to generate REP301-REP304.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.effects.certificate import load_certificate
from repro.lint.findings import Finding
from repro.lint.perf.extract import PerfExtract, extract_perf
from repro.lint.perf.hotset import (
    PerfAnalysis,
    build_analysis,
    perf_findings,
)
from repro.lint.summaries import LayerResult, SummaryPass

__all__ = ["PerfPass", "analyze_perf", "PERF_ANALYSIS_VERSION"]

# Semantic version of perf/extract.py; see SummaryCache.
PERF_ANALYSIS_VERSION = 2


class PerfPass(SummaryPass[PerfExtract, PerfAnalysis]):
    kind = "perf"
    analysis_version = PERF_ANALYSIS_VERSION
    extract_type = PerfExtract

    def __init__(
        self,
        cache_path: Optional[str | pathlib.Path],
        certificate_path: Optional[str | pathlib.Path] = None,
    ) -> None:
        super().__init__(cache_path)
        self.certificate_path = certificate_path

    def extract(self, module: ModuleContext) -> PerfExtract:
        return extract_perf(module)

    def analyze(
        self, graph: CallGraph
    ) -> Tuple[PerfAnalysis, List[Finding]]:
        analysis = build_analysis(self.extracts, graph)

        certificate_tiers: Optional[Dict[str, str]] = None
        if self.certificate_path is not None:
            certificate = load_certificate(self.certificate_path)
            if certificate is not None:
                functions = certificate.get("functions")
                if isinstance(functions, dict):
                    certificate_tiers = {
                        str(k): str(v) for k, v in functions.items()
                    }
        return analysis, perf_findings(
            analysis, self.sources, certificate_tiers
        )


def analyze_perf(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
    certificate_path: Optional[str | pathlib.Path] = None,
    profile_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[PerfAnalysis]:
    """Run the whole-program perf analysis over files and directories.

    ``profile_path`` is accepted and ignored; the traced run in
    ``bench/workloads/lint_gate.py`` still passes it.
    """
    return PerfPass(cache_path, certificate_path).run(paths, root)
