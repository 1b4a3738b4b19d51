"""The effect layer's entry point: files in, REP201-REP205 findings out.

:class:`EffectPass` is the layer as a scan pass (see
:mod:`repro.lint.summaries` for the shared cache-or-extract pipeline);
``analyze_effects`` runs it alone, ``repro lint`` runs it beside the
other passes in one scan.  When a committed determinism certificate is
present, tier regressions against it are reported as REP205 findings
anchored on the demoted function's definition line.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.effects.certificate import (
    certificate_demotions,
    load_certificate,
)
from repro.lint.effects.extract import EffectExtract, extract_effects
from repro.lint.effects.propagate import (
    EffectAnalysis,
    effect_findings,
    propagate_effects,
)
from repro.lint.findings import Finding
from repro.lint.summaries import LayerResult, SummaryPass

__all__ = ["EffectPass", "analyze_effects", "EFFECT_ANALYSIS_VERSION"]

# Semantic version of effects/extract.py; see SummaryCache.
EFFECT_ANALYSIS_VERSION = 1


class EffectPass(SummaryPass[EffectExtract, EffectAnalysis]):
    kind = "effect"
    analysis_version = EFFECT_ANALYSIS_VERSION
    extract_type = EffectExtract

    def __init__(
        self,
        cache_path: Optional[str | pathlib.Path],
        certificate_path: Optional[str | pathlib.Path] = None,
    ) -> None:
        super().__init__(cache_path)
        self.certificate_path = certificate_path

    def extract(self, module: ModuleContext) -> EffectExtract:
        return extract_effects(module)

    def analyze(
        self, graph: CallGraph
    ) -> Tuple[EffectAnalysis, List[Finding]]:
        analysis = propagate_effects(self.extracts, graph)
        findings = effect_findings(analysis, self.sources)
        if self.certificate_path is not None:
            certificate = load_certificate(self.certificate_path)
            if certificate is not None:
                findings.extend(
                    _demotion_findings(certificate, analysis, self.sources)
                )
        return analysis, findings


def analyze_effects(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
    certificate_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[EffectAnalysis]:
    """Run the whole-program effect analysis over files and directories."""
    return EffectPass(cache_path, certificate_path).run(paths, root)


def _demotion_findings(
    certificate: Dict[str, object],
    analysis: EffectAnalysis,
    sources: Dict[str, Sequence[str]],
) -> List[Finding]:
    findings: List[Finding] = []
    for qualname, certified, current in certificate_demotions(
        certificate, analysis
    ):
        summary = analysis.summary_of(qualname)
        relpath = analysis.graph.modules.get(qualname, "")
        line = summary.lineno if summary is not None else 1
        findings.append(
            Finding.at(
                "REP205",
                (
                    f"'{qualname}' is certified '{certified}' in the "
                    f"determinism certificate but now analyzes as "
                    f"'{current}' "
                    f"(effects: {analysis.effect_words(qualname)})"
                ),
                relpath or "(deleted)",
                line,
                sources.get(relpath, ()),
            )
        )
    return findings
