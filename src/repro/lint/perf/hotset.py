"""The hot region and the cost rules REP301-REP304 that police it.

The declared hot set is syntactic (``@hot`` decorators found by the
extractor); the *hot region* is its closure over the project call graph:
every function reachable from a declared entry inherits the contract,
because the cost of an inner loop is the cost of everything it calls.
REP301-REP304 fire only inside the region — cold code may allocate,
scan, and recompute freely.

Resolution caveat (shared with the flow/effect layers, DESIGN.md §13):
the closure follows statically resolvable edges only.  A method call on
a value of unknown class (``pool.acquire()``) is a dangling edge the
closure cannot cross, which is why the broker and simulator decorate
their inner-loop helpers explicitly instead of relying on discovery.

REP303 and REP304 judge callees against the committed determinism
certificate (the effect layer's artifact): "pure" is the licence to
hoist, absence is the definition of *uncertified*.  Without a
certificate those two rules stay silent — the perf layer refuses to
guess about effects.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.effects.ruledefs import TIER_PURE
from repro.lint.findings import Finding, FindingSink
from repro.lint.perf.extract import ClassInfo, PerfExtract, PerfSummary

__all__ = ["PerfAnalysis", "build_analysis", "perf_findings"]


@dataclasses.dataclass
class PerfAnalysis:
    """Whole-program view the rules (and tests) interrogate."""

    extracts: List[PerfExtract]
    graph: CallGraph
    #: functions carrying an ``@hot`` decorator
    hot_entries: FrozenSet[str]
    #: call-graph closure of the declared entries
    hot_region: FrozenSet[str]
    #: every project class, keyed by qualname
    classes: Dict[str, ClassInfo]
    #: every project function qualname -> (relpath, def line)
    locations: Dict[str, Tuple[str, int]]

    def summary_of(self, qualname: str) -> Optional[PerfSummary]:
        return self.graph.functions.get(qualname)

    def in_hot_region(self, qualname: str) -> bool:
        return qualname in self.hot_region


def build_analysis(
    extracts: Sequence[PerfExtract], graph: CallGraph
) -> PerfAnalysis:
    """Close the declared hot set over the call graph."""
    classes: Dict[str, ClassInfo] = {}
    locations: Dict[str, Tuple[str, int]] = {}
    entries: Set[str] = set()
    for extract in extracts:
        classes.update(extract.classes)
        for qualname, summary in extract.functions.items():
            locations[qualname] = (extract.relpath, summary.lineno)
            if summary.is_hot:
                entries.add(qualname)
    return PerfAnalysis(
        extracts=list(extracts),
        graph=graph,
        hot_entries=frozenset(entries),
        hot_region=frozenset(graph.reachable(entries)),
        classes=classes,
        locations=locations,
    )


def perf_findings(
    analysis: PerfAnalysis,
    sources: Dict[str, Sequence[str]],
    certificate_tiers: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """REP301-REP304 findings for every hot-region function."""
    sink = FindingSink(sources)
    emit = sink.emit
    for extract in analysis.extracts:
        for qualname, summary in extract.functions.items():
            if qualname not in analysis.hot_region:
                continue
            _rule_301(analysis, extract, qualname, summary, emit)
            _rule_302(extract, qualname, summary, emit)
            if certificate_tiers is not None:
                _rule_303(
                    analysis, extract, qualname, summary,
                    certificate_tiers, emit,
                )
                _rule_304(
                    analysis, extract, qualname, summary,
                    certificate_tiers, emit,
                )
    return sink.sorted()


def _rule_301(analysis, extract, qualname, summary, emit) -> None:
    for cls_name, line in summary.loop_constructions:
        info = analysis.classes.get(cls_name)
        if info is None or info.slotted:
            continue
        emit(
            "REP301",
            extract.relpath,
            line,
            (
                f"'{qualname}' constructs non-slotted class "
                f"'{cls_name}' inside a loop of the hot region "
                f"(add __slots__ or dataclass(slots=True))"
            ),
        )


def _rule_302(extract, qualname, summary, emit) -> None:
    for name, op, line in summary.loop_scans:
        emit(
            "REP302",
            extract.relpath,
            line,
            (
                f"'{qualname}' scans list '{name}' linearly "
                f"('{op}') inside a loop of the hot region — "
                f"superlinear over the driving collection"
            ),
        )


def _rule_303(
    analysis, extract, qualname, summary, certificate_tiers, emit
) -> None:
    for callee, line in summary.loop_invariant_calls:
        if callee not in analysis.locations:
            continue  # only project functions have certified purity
        if certificate_tiers.get(callee) != TIER_PURE:
            continue
        emit(
            "REP303",
            extract.relpath,
            line,
            (
                f"'{qualname}' repeats certified-pure call "
                f"'{callee}' with loop-invariant arguments inside a "
                f"hot loop (hoist it above the loop)"
            ),
        )


def _rule_304(
    analysis, extract, qualname, summary, certificate_tiers, emit
) -> None:
    for callee, line in summary.loop_calls:
        if callee not in analysis.locations:
            continue  # external callees are outside the contract
        if callee in certificate_tiers:
            continue  # certified at some tier: cost/effects audited
        callee_summary = analysis.summary_of(callee)
        if callee_summary is not None and callee_summary.is_hot:
            continue  # explicitly declared hot: under these rules
        emit(
            "REP304",
            extract.relpath,
            line,
            (
                f"'{qualname}' calls '{callee}' inside a hot loop "
                f"but the callee is neither effects-certified nor "
                f"declared @hot — certify it or declare it"
            ),
        )
