"""The perf layer's entry point: files in, REP301-REP305 findings out.

:class:`PerfPass` is the layer as a scan pass (see
:mod:`repro.lint.summaries` for the shared cache-or-extract pipeline);
``analyze_perf`` runs it alone, ``repro lint`` runs it beside the other
passes in one scan.  The declared hot set is closed over the call graph
to generate REP301-REP304; when a committed call profile is present,
REP305 fires for every measured-hot function outside the static hot
region.
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
from repro.lint.perf.profile import cross_validate, load_profile
from repro.lint.summaries import LayerResult, SummaryPass

__all__ = ["PerfPass", "analyze_perf", "PERF_ANALYSIS_VERSION"]

# Semantic version of perf/extract.py; see SummaryCache.
PERF_ANALYSIS_VERSION = 1


class PerfPass(SummaryPass[PerfExtract, PerfAnalysis]):
    kind = "perf"
    analysis_version = PERF_ANALYSIS_VERSION
    extract_type = PerfExtract

    def __init__(
        self,
        cache_path: Optional[str | pathlib.Path],
        certificate_path: Optional[str | pathlib.Path] = None,
        profile_path: Optional[str | pathlib.Path] = None,
    ) -> None:
        super().__init__(cache_path)
        self.certificate_path = certificate_path
        self.profile_path = profile_path

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
        findings = perf_findings(analysis, self.sources, certificate_tiers)

        if self.profile_path is not None:
            profile = load_profile(self.profile_path)
            if profile is not None:
                findings.extend(
                    _rep305_findings(profile, analysis, self.sources)
                )
        return analysis, findings


def analyze_perf(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
    certificate_path: Optional[str | pathlib.Path] = None,
    profile_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[PerfAnalysis]:
    """Run the whole-program perf analysis over files and directories."""
    return PerfPass(cache_path, certificate_path, profile_path).run(
        paths, root
    )


def _rep305_findings(
    profile: Dict[str, object],
    analysis: PerfAnalysis,
    sources: Dict[str, Sequence[str]],
) -> List[Finding]:
    agreement = cross_validate(
        profile,
        hot_region=analysis.hot_region,
        declared=analysis.hot_entries,
        known=frozenset(analysis.locations),
    )
    findings: List[Finding] = []
    for qualname, share in agreement.undeclared_hot:
        relpath, line = analysis.locations.get(qualname, ("(profile)", 1))
        findings.append(
            Finding.at(
                "REP305",
                (
                    f"'{qualname}' holds {share:.2%} of profiled calls "
                    f"(threshold {agreement.threshold:.2%}) but is not "
                    f"in the declared hot region — declare it @hot or "
                    f"shrink the workload's reliance on it"
                ),
                relpath,
                line,
                sources.get(relpath, ()),
            )
        )
    return findings
