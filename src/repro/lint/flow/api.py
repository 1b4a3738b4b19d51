"""The flow layer's entry point: files in, REP104 findings out.

REP104's dimensional check reads annotations across the handful of
prediction-core modules at once, so :class:`FlowPass` keeps *their*
contexts (and only theirs) until ``finish()``.  Its verdict is a
function of those sources alone: the pass stores it in its own cache
file under :data:`UNITS_ENTRY`, keyed by all of their digests, so a
warm run parses none of them.  ``analyze_paths`` runs the pass alone,
``repro lint`` beside the other passes in one scan.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import List, Optional, Sequence

from repro.lint.context import ModuleContext
from repro.lint.engine import Pass, scan
from repro.lint.findings import CachedFindings
from repro.lint.flow.units import applies_to_units, check_units
from repro.lint.summaries import LayerResult, SummaryCache

__all__ = ["FlowPass", "analyze_paths", "FLOW_ANALYSIS_VERSION", "UNITS_ENTRY"]

# Semantic version of what the flow cache holds; see SummaryCache.
FLOW_ANALYSIS_VERSION = 2

#: The cache key of the REP104 verdict (no module has this path).
UNITS_ENTRY = "REP104"


class FlowPass(Pass):
    def __init__(self, cache_path: Optional[str | pathlib.Path]) -> None:
        self.cache: SummaryCache[CachedFindings] = SummaryCache(
            pathlib.Path(cache_path) if cache_path is not None else None,
            "flow",
            FLOW_ANALYSIS_VERSION,
            CachedFindings.from_dict,
        )
        self.unit_modules: List[ModuleContext] = []

    def visit(self, module: ModuleContext) -> None:
        if applies_to_units(module.relpath):
            self.unit_modules.append(module)

    def finish(self) -> LayerResult[None]:
        """Check (or recall) the verdict and save the cache."""
        modules = self.unit_modules
        key = hashlib.sha256(
            "".join(f"{m.relpath} {m.digest}\n" for m in modules).encode()
        ).hexdigest()
        entry = self.cache.get(UNITS_ENTRY, key)
        if entry is None:
            parsed = [(m.relpath, m.tree) for m in modules if m.tree is not None]
            sources = {m.relpath: m.lines for m in modules}
            entry = CachedFindings(check_units(parsed, sources))
            self.cache.put(UNITS_ENTRY, key, entry)
        self.cache.save()
        return LayerResult(
            findings=list(entry.findings),
            analysis=None,
            files_analyzed=len(modules),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            module_digests={m.relpath: m.digest for m in modules},
        )

    def run(
        self,
        paths: Sequence[str | pathlib.Path],
        root: Optional[str | pathlib.Path],
    ) -> LayerResult[None]:
        """Scan ``paths`` with this pass alone."""
        scan(paths, root, [self])
        return self.finish()


def analyze_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    cache_path: Optional[str | pathlib.Path] = None,
) -> LayerResult[None]:
    """Run the flow layer (REP104) over files and directories."""
    return FlowPass(cache_path).run(paths, root)
