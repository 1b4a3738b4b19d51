"""Bottom-up summary propagation and finding generation (REP101-103).

Three fixpoints run over the SCC condensation of the call graph, callees
first:

``ret_kinds``
    taint kinds (clock/env/rng) a function's return value may carry,
    independent of its arguments.  Call-site argument taint does not
    need a summary: the extractor already unions argument atoms into
    every call's result atoms (pass-through over-approximation), so a
    laundering identity wrapper is tainted at the call site itself.

``param_sinks``
    formal parameters whose value reaches a durable sink — directly, or
    by being forwarded into a sink-reaching parameter of a callee.
    Public functions of serialization-named modules (the REP007 scope)
    sink *all* their parameters: handing tainted data to a serializer
    is a violation even when the writer itself lives outside the
    analyzed tree.

``raise_sets``
    builtin exceptions a call to the function may surface, minus those
    swallowed by ``except`` clauses around each call edge.  REP103
    fires where a *public* middleware/broker/campaign function would
    leak a builtin raised in somebody else's body — the same-function
    case is REP005's, intraprocedural and already banned.

``effects`` is the purity lattice for reporting: ``clock``/``env``/
``rng``/``io`` flags, transitively closed; a function with none is
deterministic.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.atoms import MODULE_BODY
from repro.lint.callgraph import CallGraph, slot_params
from repro.lint.findings import Finding, FindingSink
from repro.lint.flow.extract import (
    FunctionSummary,
    ModuleExtract,
    handler_covers,
)
from repro.lint.flow.ruledefs import (
    KIND_TO_CODE,
    PUBLIC_API_FRAGMENTS,
    SINK_MODULE_FRAGMENTS,
)

__all__ = ["FlowAnalysis", "propagate", "flow_findings"]

EFFECT_IO = "io"


@dataclasses.dataclass
class FlowAnalysis:
    """The propagated whole-program facts, keyed by function qualname."""

    extracts: List[ModuleExtract]
    graph: CallGraph
    ret_kinds: Dict[str, Set[str]]
    param_sinks: Dict[str, Dict[str, Tuple[str, ...]]]
    raise_sets: Dict[str, Dict[str, Tuple[str, int]]]
    effects: Dict[str, Set[str]]

    def summary_of(self, qualname: str) -> Optional[FunctionSummary]:
        return self.graph.functions.get(qualname)

    def purity(self, qualname: str) -> str:
        """One deterministic word per function, for reports and goldens."""
        effects = self.effects.get(qualname, set())
        if not effects:
            return "deterministic"
        return "+".join(sorted(effects))


def propagate(
    extracts: Sequence[ModuleExtract], graph: CallGraph
) -> FlowAnalysis:
    functions: Dict[str, FunctionSummary] = graph.functions
    modules = graph.modules

    ret_kinds: Dict[str, Set[str]] = {q: set() for q in functions}
    param_sinks: Dict[str, Dict[str, Set[str]]] = {
        q: _seed_param_sinks(functions[q], modules[q]) for q in functions
    }
    raise_sets: Dict[str, Dict[str, Tuple[str, int]]] = {
        q: {
            exc: (q, line)
            for exc, line in functions[q].raises.items()
        }
        for q in functions
    }
    effects: Dict[str, Set[str]] = {
        q: _direct_effects(functions[q]) for q in functions
    }

    for component in graph.order:
        changed = True
        while changed:
            changed = False
            for qualname in component:
                summary = functions[qualname]
                changed |= _update_ret_kinds(summary, ret_kinds)
                changed |= _update_param_sinks(
                    summary, functions, param_sinks, ret_kinds
                )
                changed |= _update_raises(summary, functions, raise_sets)
                changed |= _update_effects(summary, functions, effects)

    return FlowAnalysis(
        extracts=list(extracts),
        graph=graph,
        ret_kinds=ret_kinds,
        param_sinks={
            q: {p: tuple(sorted(s)) for p, s in sinks.items() if s}
            for q, sinks in param_sinks.items()
        },
        raise_sets=raise_sets,
        effects=effects,
    )


def _seed_param_sinks(
    summary: FunctionSummary, relpath: str
) -> Dict[str, Set[str]]:
    seeded: Dict[str, Set[str]] = {p: set() for p in summary.params}
    stem = pathlib.PurePosixPath(relpath).stem
    if summary.is_public and any(
        fragment in stem for fragment in SINK_MODULE_FRAGMENTS
    ):
        # Serialization-module contract: every public parameter is
        # presumed to end up in an artifact.
        for param in summary.params:
            if param not in ("self", "cls"):
                seeded[param].add(f"serialization module '{stem}'")
    return seeded


def _atom_kinds(
    atoms: Sequence[str], ret_kinds: Dict[str, Set[str]]
) -> Set[str]:
    """Taint kinds of an atom set, with parameters treated as clean."""
    kinds: Set[str] = set()
    for atom in atoms:
        label, _, payload = atom.partition(":")
        if label == "source":
            kinds.add(payload)
        elif label == "call":
            kinds |= ret_kinds.get(payload, set())
    return kinds


def _atom_params(atoms: Sequence[str]) -> Set[str]:
    return {
        atom.partition(":")[2]
        for atom in atoms
        if atom.startswith("param:")
    }


def _update_ret_kinds(
    summary: FunctionSummary, ret_kinds: Dict[str, Set[str]]
) -> bool:
    new = _atom_kinds(summary.ret_atoms, ret_kinds)
    current = ret_kinds[summary.qualname]
    if new - current:
        current |= new
        return True
    return False


def _update_param_sinks(
    summary: FunctionSummary,
    functions: Dict[str, FunctionSummary],
    param_sinks: Dict[str, Dict[str, Set[str]]],
    ret_kinds: Dict[str, Set[str]],
) -> bool:
    mine = param_sinks[summary.qualname]
    changed = False
    for sink, _line, atoms in summary.sink_flows:
        for param in _atom_params(atoms):
            if param in mine and sink not in mine[param]:
                mine[param].add(sink)
                changed = True
    for callee_name, _line, pos_atoms, kw_atoms in summary.arg_flows:
        callee = functions.get(callee_name)
        if callee is None:
            continue
        theirs = param_sinks.get(callee_name, {})
        for target, atoms in slot_params(callee, pos_atoms, kw_atoms):
            reached = theirs.get(target, set())
            if not reached:
                continue
            for param in _atom_params(atoms):
                if param in mine and reached - mine[param]:
                    mine[param] |= reached
                    changed = True
    return changed


def _update_raises(
    summary: FunctionSummary,
    functions: Dict[str, FunctionSummary],
    raise_sets: Dict[str, Dict[str, Tuple[str, int]]],
) -> bool:
    mine = raise_sets[summary.qualname]
    changed = False
    for callee_name, line, caught in summary.calls:
        if callee_name not in functions:
            continue
        for exc, (origin, _line) in raise_sets[callee_name].items():
            if handler_covers(caught, exc):
                continue
            if exc not in mine:
                mine[exc] = (origin, line)
                changed = True
    return changed


def _update_effects(
    summary: FunctionSummary,
    functions: Dict[str, FunctionSummary],
    effects: Dict[str, Set[str]],
) -> bool:
    mine = effects[summary.qualname]
    before = len(mine)
    for callee_name, _line, _caught in summary.calls:
        if callee_name in functions:
            mine |= effects[callee_name]
    return len(mine) != before


def _direct_effects(summary: FunctionSummary) -> Set[str]:
    direct = set(summary.direct_sources)
    if summary.io_calls:
        direct.add(EFFECT_IO)
    return direct


# ---------------------------------------------------------------------------
# Finding generation
# ---------------------------------------------------------------------------


def flow_findings(
    analysis: FlowAnalysis, sources: Dict[str, Sequence[str]]
) -> List[Finding]:
    """REP101/REP102/REP103 findings from a propagated analysis.

    ``sources`` maps each extract's relpath to its source lines.
    """
    sink = FindingSink(sources)
    functions: Dict[str, FunctionSummary] = analysis.graph.functions
    for extract in analysis.extracts:
        for qualname, summary in extract.functions.items():
            _taint_findings(
                analysis, extract, summary, functions, sink.emit
            )
            _escape_findings(analysis, extract, summary, sink.emit)
    return sink.sorted()


def _taint_findings(
    analysis: FlowAnalysis,
    extract: ModuleExtract,
    summary: FunctionSummary,
    functions: Dict[str, FunctionSummary],
    emit,
) -> None:
    for sink, line, atoms in summary.sink_flows:
        for kind in sorted(_atom_kinds(atoms, analysis.ret_kinds)):
            emit(
                KIND_TO_CODE[kind],
                extract.relpath,
                line,
                f"{kind}-tainted value reaches durable sink {sink}",
            )
    for callee_name, line, pos_atoms, kw_atoms in summary.arg_flows:
        callee = functions.get(callee_name)
        if callee is None:
            continue
        theirs = analysis.param_sinks.get(callee_name, {})
        if not theirs:
            continue
        for target, atoms in slot_params(callee, pos_atoms, kw_atoms):
            reached = theirs.get(target, ())
            if not reached:
                continue
            for kind in sorted(_atom_kinds(atoms, analysis.ret_kinds)):
                emit(
                    KIND_TO_CODE[kind],
                    extract.relpath,
                    line,
                    (
                        f"{kind}-tainted argument '{target}' to "
                        f"{callee_name} reaches {reached[0]}"
                    ),
                )


def _escape_findings(
    analysis: FlowAnalysis,
    extract: ModuleExtract,
    summary: FunctionSummary,
    emit,
) -> None:
    if not summary.is_public or summary.qualname.endswith(MODULE_BODY):
        return
    posix = "/" + extract.relpath.lstrip("/")
    if not any(fragment in posix for fragment in PUBLIC_API_FRAGMENTS):
        return
    local = summary.qualname
    if extract.module and local.startswith(extract.module + "."):
        local = local[len(extract.module) + 1 :]
    for exc, (origin, line) in sorted(
        analysis.raise_sets.get(summary.qualname, {}).items()
    ):
        if origin == summary.qualname:
            continue  # same-function raise is REP005's (intraprocedural)
        emit(
            "REP103",
            extract.relpath,
            line,
            (
                f"public API '{local}' can leak builtin {exc} "
                f"raised in {origin}"
            ),
        )
