"""The flow layer's entry point: files in, REP101-REP104 findings out.

:class:`FlowPass` is the layer as a scan pass (see
:mod:`repro.lint.summaries` for the shared cache-or-extract pipeline);
``analyze_paths`` runs it alone, ``repro lint`` runs it beside the other
passes in one scan.  Findings are plain :class:`Finding` objects, so the
CLI concatenates every pass's list and hands the lot to the same
baseline partition and reporters.

REP104's dimensional check reads annotations across the handful of
prediction-core modules at once, so the pass keeps *their* trees (and
only theirs) until ``finish()``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.flow.extract import ModuleExtract, extract_module
from repro.lint.flow.propagate import FlowAnalysis, flow_findings, propagate
from repro.lint.flow.units import applies_to_units, check_units
from repro.lint.summaries import LayerResult, SummaryPass

__all__ = ["FlowPass", "analyze_paths", "FLOW_ANALYSIS_VERSION"]

# Semantic version of flow/extract.py; see SummaryCache.
FLOW_ANALYSIS_VERSION = 1


class FlowPass(SummaryPass[ModuleExtract, FlowAnalysis]):
    kind = "flow"
    analysis_version = FLOW_ANALYSIS_VERSION
    extract_type = ModuleExtract

    def __init__(self, cache_path: Optional[str | pathlib.Path]) -> None:
        super().__init__(cache_path)
        self.unit_modules: List[Tuple[str, ast.Module]] = []

    def visit(self, module: ModuleContext) -> None:
        super().visit(module)
        if applies_to_units(module.relpath) and module.tree is not None:
            self.unit_modules.append((module.relpath, module.tree))

    def extract(self, module: ModuleContext) -> ModuleExtract:
        return extract_module(module)

    def analyze(self, graph: CallGraph) -> Tuple[FlowAnalysis, List[Finding]]:
        analysis = propagate(self.extracts, graph)
        findings = flow_findings(analysis, self.sources)
        findings.extend(check_units(self.unit_modules, self.sources))
        return analysis, findings


def analyze_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[FlowAnalysis]:
    """Run the whole-program flow analysis over files and directories."""
    return FlowPass(cache_path).run(paths, root)
