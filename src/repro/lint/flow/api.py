"""The flow layer's entry point: files in, REP101-REP104 findings out.

:class:`FlowPass` is the layer as a scan pass (see
:mod:`repro.lint.summaries` for the shared cache-or-extract pipeline);
``analyze_paths`` runs it alone, ``repro lint`` runs it beside the other
passes in one scan.  Findings are plain :class:`Finding` objects, so the
CLI concatenates every pass's list and hands the lot to the same
baseline partition and reporters.

REP104's dimensional check reads annotations across the handful of
prediction-core modules at once, so the pass keeps *their* contexts (and
only theirs) until ``finish()``.  Its verdict is a function of those
sources alone: handed the rules pass's findings cache, the pass stores
it there under :data:`UNITS_ENTRY`, keyed by all of their digests, and a
warm run parses none of them.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.findings import CachedFindings, Finding
from repro.lint.flow.extract import ModuleExtract, extract_module
from repro.lint.flow.propagate import FlowAnalysis, flow_findings, propagate
from repro.lint.flow.units import applies_to_units, check_units
from repro.lint.summaries import LayerResult, SummaryCache, SummaryPass

__all__ = ["FlowPass", "analyze_paths", "FLOW_ANALYSIS_VERSION", "UNITS_ENTRY"]

# Semantic version of flow/extract.py; see SummaryCache.
FLOW_ANALYSIS_VERSION = 1

#: The findings-cache key of the REP104 verdict (no module has this path).
UNITS_ENTRY = "REP104"


class FlowPass(SummaryPass[ModuleExtract, FlowAnalysis]):
    kind = "flow"
    analysis_version = FLOW_ANALYSIS_VERSION
    extract_type = ModuleExtract

    def __init__(
        self,
        cache_path: Optional[str | pathlib.Path],
        findings_cache: Optional[SummaryCache[CachedFindings]] = None,
    ) -> None:
        super().__init__(cache_path)
        self.findings_cache = findings_cache
        self.unit_modules: List[ModuleContext] = []

    def visit(self, module: ModuleContext) -> None:
        super().visit(module)
        if applies_to_units(module.relpath):
            self.unit_modules.append(module)

    def extract(self, module: ModuleContext) -> ModuleExtract:
        return extract_module(module)

    def analyze(self, graph: CallGraph) -> Tuple[FlowAnalysis, List[Finding]]:
        analysis = propagate(self.extracts, graph)
        findings = flow_findings(analysis, self.sources)
        findings.extend(self._unit_findings())
        return analysis, findings

    def _unit_findings(self) -> List[Finding]:
        cache, modules = self.findings_cache, self.unit_modules
        key = hashlib.sha256(
            "".join(f"{m.relpath} {m.digest}\n" for m in modules).encode()
        ).hexdigest()
        entry = cache.get(UNITS_ENTRY, key) if cache is not None else None
        if entry is None:
            parsed = [(m.relpath, m.tree) for m in modules if m.tree is not None]
            entry = CachedFindings(check_units(parsed, self.sources))
            if cache is not None:
                cache.put(UNITS_ENTRY, key, entry)
                cache.save()
        return entry.findings


def analyze_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[FlowAnalysis]:
    """Run the whole-program flow analysis over files and directories."""
    return FlowPass(cache_path).run(paths, root)
