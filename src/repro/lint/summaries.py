"""What the flow, effect, and perf layers share: cache, pass, result.

Each whole-program layer is the same pipeline over a different fact:
per module, *look up my cached summary or extract it from the tree*;
after the last module, *build the call graph over all summaries and
turn them into findings*.  :class:`SummaryPass` is that pipeline as a
scan :class:`~repro.lint.engine.Pass`; a layer supplies its extractor,
its summary type, and its finding generation.

Extraction (parse + dataflow walks per function) dominates a cold run;
propagation over the summaries is cheap and re-runs every time.
:class:`SummaryCache` therefore stores exactly the per-module extract,
keyed by the SHA-256 of the module *source text* — any edit invalidates
precisely that module's entry, and path moves key afresh under the new
relpath.

The file is one durable canonical-JSON document (the same
``atomic_write_json`` the rest of the framework uses, which also keeps
the cache itself inside the REP003 serialization contract).  A corrupt,
missing, or version-skewed cache is never an error: an analysis must
give the same answer with or without it, so any read problem degrades
to a full re-extract and the file is rewritten on save.  A run that
changed nothing leaves the file alone.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.durable import StoreError, atomic_write_json, read_json_document
from repro.lint.context import ModuleContext
from repro.lint.engine import Pass, scan
from repro.lint.findings import Finding
from repro.lint.callgraph import CallGraph, build_callgraph

__all__ = [
    "SummaryCache",
    "SummaryPass",
    "LayerResult",
    "CACHE_FORMAT_VERSION",
]

CACHE_FORMAT_VERSION = 1

E = TypeVar("E")  # a layer's per-module extract type
A = TypeVar("A")  # a layer's propagated analysis type


class SummaryCache(Generic[E]):
    """Per-module extract store; counts hits/misses for diagnostics.

    ``analysis_version`` is the semantic version of the layer's
    *extractor* (a hand-bumped integer for the three summary layers, the
    linter's own source digest for the rules pass).  Entries are keyed
    by source digest, so a source file that has not changed would
    happily replay a summary produced by an older extractor with
    different rules; a cache whose recorded version differs (or is
    absent) is discarded wholesale.

    Entries are decoded into extract objects as the file is read and
    encoded again only if something changed, so neither a warm run nor
    three caches open side by side hold the raw JSON documents.
    """

    def __init__(
        self,
        path: Optional[pathlib.Path],
        kind: str,
        analysis_version: int | str,
        from_dict: Callable[[Dict[str, Any]], E],
    ) -> None:
        self.path = path
        self.analysis_version = analysis_version
        #: relpath -> (source digest, extract)
        self._modules: Dict[str, Tuple[Any, E]] = {}
        #: whether ``save`` has anything to write the file does not hold
        self._dirty = True
        self.hits = 0
        self.misses = 0
        if path is None or not path.exists():
            return
        try:
            data = read_json_document(
                path,
                f"{kind} summary cache",
                expected_version=CACHE_FORMAT_VERSION,
            )
        except StoreError:
            return  # unreadable cache == no cache
        if data.get("analysis_version") != analysis_version:
            return  # produced by a different extractor revision
        modules = data.get("modules")
        if not isinstance(modules, dict):
            return
        for relpath, entry in modules.items():
            try:
                self._modules[relpath] = (
                    entry["digest"],
                    from_dict(entry["extract"]),
                )
            except (  # what ``from_dict`` raises on a shape it cannot read
                AttributeError, ArithmeticError, LookupError, TypeError, ValueError
            ):
                continue  # malformed entry == no entry
        self._dirty = len(self._modules) != len(modules)

    def get(self, relpath: str, digest: str) -> Optional[E]:
        entry = self._modules.get(relpath)
        if entry is None or entry[0] != digest:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def put(self, relpath: str, digest: str, extract: E) -> None:
        self._modules[relpath] = (digest, extract)
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            self.path,
            {
                "format_version": CACHE_FORMAT_VERSION,
                "analysis_version": self.analysis_version,
                "modules": {
                    relpath: {
                        "digest": digest,
                        "extract": extract.to_dict(),  # type: ignore[attr-defined]
                    }
                    for relpath, (digest, extract) in self._modules.items()
                },
            },
        )


@dataclasses.dataclass
class LayerResult(Generic[A]):
    """Findings plus the analysis artifacts tests and tooling inspect."""

    findings: List[Finding]
    analysis: A
    files_analyzed: int
    cache_hits: int
    cache_misses: int
    #: relpath -> sha256 of the analyzed source (certificate input)
    module_digests: Dict[str, str]

    @property
    def callgraph(self) -> CallGraph:
        return self.analysis.graph  # type: ignore[attr-defined]


class SummaryPass(Pass, Generic[E, A]):
    """One whole-program layer as a scan pass.

    Files that do not parse are skipped here — the rules pass already
    reports them as REP000, and a broken module contributes no summaries
    rather than aborting the whole-program analysis.
    """

    #: label in cache diagnostics ("flow", "effect", "perf")
    kind: str
    #: bump whenever the extractor changes what a summary contains
    analysis_version: int
    #: the per-module extract class (``from_dict`` / ``to_dict``)
    extract_type: Any

    def __init__(self, cache_path: Optional[str | pathlib.Path]) -> None:
        self.cache: SummaryCache[E] = SummaryCache(
            pathlib.Path(cache_path) if cache_path is not None else None,
            self.kind,
            self.analysis_version,
            self.extract_type.from_dict,
        )
        self.extracts: List[E] = []
        self.sources: Dict[str, Sequence[str]] = {}
        self.module_digests: Dict[str, str] = {}

    # ---- what a layer supplies ---------------------------------------

    def extract(self, module: ModuleContext) -> E:
        """Extract one parsed module's summaries."""
        raise NotImplementedError  # interface method; layers override

    def analyze(self, graph: CallGraph) -> Tuple[A, List[Finding]]:
        """Propagate over ``graph`` and generate this layer's findings."""
        raise NotImplementedError  # interface method; layers override

    # ---- the shared pipeline -----------------------------------------

    def visit(self, module: ModuleContext) -> None:
        self.sources[module.relpath] = module.lines
        extract = self.cache.get(module.relpath, module.digest)
        if extract is None:
            if module.tree is None:
                return  # REP000 is the rules pass's report, not ours
            extract = self.extract(module)
            self.cache.put(module.relpath, module.digest, extract)
        self.extracts.append(extract)
        self.module_digests[module.relpath] = module.digest

    def finish(self) -> LayerResult[A]:
        """Close the scan: propagate, generate findings, save the cache."""
        analysis, findings = self.analyze(build_callgraph(self.extracts))
        findings.sort(key=Finding.sort_key)
        self.cache.save()
        return LayerResult(
            findings=findings,
            analysis=analysis,
            files_analyzed=len(self.extracts),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            module_digests=self.module_digests,
        )

    def run(
        self,
        paths: Sequence[str | pathlib.Path],
        root: Optional[str | pathlib.Path],
    ) -> LayerResult[A]:
        """Scan ``paths`` with this pass alone (the ``analyze_*`` seams)."""
        scan(paths, root, [self])
        return self.finish()
