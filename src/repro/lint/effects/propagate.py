"""Bottom-up effect propagation, tier assignment, REP201-REP205.

Three propagated facts close over the SCC condensation of the call
graph (the flow layer's graph builder runs unchanged over effect
summaries), callees first:

``flags``
    transitive effect flags — ``ambient``, ``global-write``, ``io``,
    and ``unordered-sink`` (the function, or anything it calls, writes
    set-iteration-ordered data into a durable artifact).  Plain union
    over call edges, like the flow layer's purity lattice.

``mutated_params``
    formals the function (transitively) mutates: seeded from local
    mutation sites, grown when the function forwards its own parameter
    into a callee formal the callee mutates.  Mutating a *local* that
    a callee scribbles on is not an effect — only the caller's own
    formals count, which is exactly the process-pool question (workers
    receive pickled copies, so argument mutation is the one in-place
    effect parallelism cannot reproduce).

``ret_unordered``
    whether the return value may derive from unordered iteration —
    resolved through ``call:`` atoms so ``sorted()`` at any hop
    launders the mark.

Tier assignment (:data:`~repro.lint.effects.ruledefs.TIER_RANK`) reads
those three facts; finding generation anchors REP201 on write sites
reachable from the certified roots (plus every resolved pool-submit
target), REP203 on sink flows and serialization-module argument edges,
and REP205 on submit sites whose target misses the pool-safe tier.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.atoms import MODULE_BODY
from repro.lint.callgraph import CallGraph, slot_params
from repro.lint.findings import Finding, FindingSink
from repro.lint.flow.ruledefs import SINK_MODULE_FRAGMENTS
from repro.lint.effects.extract import (
    ATOM_UNORDERED,
    EffectExtract,
    EffectSummary,
)
from repro.lint.effects.ruledefs import (
    CERTIFIED_ROOTS,
    EFFECT_AMBIENT,
    EFFECT_GLOBAL_WRITE,
    EFFECT_IO,
    TIER_DETERMINISTIC,
    TIER_EFFECTFUL,
    TIER_POOL_SAFE,
    TIER_PURE,
    TIER_RANK,
)

__all__ = ["EffectAnalysis", "propagate_effects", "effect_findings"]

_UNORDERED_SINK = "unordered-sink"


@dataclasses.dataclass
class EffectAnalysis:
    """The propagated whole-program effect facts, keyed by qualname."""

    extracts: List[EffectExtract]
    graph: CallGraph
    #: transitive flags: ambient / global-write / io / unordered-sink
    flags: Dict[str, Set[str]]
    #: formals the function transitively mutates
    mutated_params: Dict[str, Set[str]]
    #: return value may carry unordered-iteration order
    ret_unordered: Dict[str, bool]
    #: certificate tier per function (module bodies excluded)
    tiers: Dict[str, str]

    def summary_of(self, qualname: str) -> Optional[EffectSummary]:
        return self.graph.functions.get(qualname)

    def tier_of(self, qualname: str) -> str:
        return self.tiers.get(qualname, TIER_EFFECTFUL)

    def effect_words(self, qualname: str) -> str:
        """Deterministic one-line effect description, for messages."""
        words = sorted(self.flags.get(qualname, set()))
        if self.mutated_params.get(qualname):
            words.append(
                "mutates("
                + ",".join(sorted(self.mutated_params[qualname]))
                + ")"
            )
        if self.ret_unordered.get(qualname):
            words.append("returns-unordered")
        return "+".join(words) if words else "none"


def propagate_effects(
    extracts: Sequence[EffectExtract], graph: CallGraph
) -> EffectAnalysis:
    functions: Dict[str, EffectSummary] = graph.functions
    modules = graph.modules

    flags: Dict[str, Set[str]] = {
        q: _direct_flags(functions[q]) for q in functions
    }
    mutated: Dict[str, Set[str]] = {
        q: {name for name, _line in functions[q].param_mutations}
        for q in functions
    }
    ret_unordered: Dict[str, bool] = {q: False for q in functions}
    sink_params = _serialization_params(functions, modules)

    for component in graph.order:
        changed = True
        while changed:
            changed = False
            for qualname in component:
                summary = functions[qualname]
                changed |= _update_flags(
                    summary, functions, flags, ret_unordered, sink_params
                )
                changed |= _update_mutated(summary, functions, mutated)
                changed |= _update_ret_unordered(summary, ret_unordered)

    tiers = {
        q: _tier(flags[q], mutated[q], ret_unordered[q])
        for q in functions
        if not q.endswith(MODULE_BODY)
    }
    return EffectAnalysis(
        extracts=list(extracts),
        graph=graph,
        flags=flags,
        mutated_params=mutated,
        ret_unordered=ret_unordered,
        tiers=tiers,
    )


def _direct_flags(summary: EffectSummary) -> Set[str]:
    direct = set()
    for kind in (EFFECT_AMBIENT, EFFECT_GLOBAL_WRITE, EFFECT_IO):
        if kind in summary.direct:
            direct.add(kind)
    return direct


def _serialization_params(
    functions: Dict[str, EffectSummary], modules: Dict[str, str]
) -> Dict[str, Tuple[str, ...]]:
    """Public serialization-module functions sink all their parameters.

    Same contract as the flow layer's param-sink seeding: handing
    order-sensitive data to a serializer is a violation even when the
    durable write lives outside the analyzed tree.
    """
    seeded: Dict[str, Tuple[str, ...]] = {}
    for qualname, summary in functions.items():
        if not summary.is_public or qualname.endswith(MODULE_BODY):
            continue
        stem = pathlib.PurePosixPath(modules[qualname]).stem
        if any(fragment in stem for fragment in SINK_MODULE_FRAGMENTS):
            seeded[qualname] = tuple(
                p for p in summary.params if p not in ("self", "cls")
            )
    return seeded


def _unordered_in(
    atoms: Sequence[str], ret_unordered: Dict[str, bool]
) -> bool:
    """Whether an atom set carries iteration-order sensitivity.

    Only the ``unordered`` mark (a value *derived from iterating* a
    set) counts — a set-typed value itself may be used purely for
    membership, and handing one to ``json`` raises rather than
    silently reordering.
    """
    for atom in atoms:
        if atom == ATOM_UNORDERED:
            return True
        label, _, payload = atom.partition(":")
        if label == "call" and ret_unordered.get(payload, False):
            return True
    return False


def _update_flags(
    summary: EffectSummary,
    functions: Dict[str, EffectSummary],
    flags: Dict[str, Set[str]],
    ret_unordered: Dict[str, bool],
    sink_params: Dict[str, Tuple[str, ...]],
) -> bool:
    mine = flags[summary.qualname]
    before = len(mine)
    for callee_name, _line, _caught in summary.calls:
        if callee_name in functions:
            mine |= flags[callee_name]
    for _sink, _line, atoms in summary.sink_flows:
        if _unordered_in(atoms, ret_unordered):
            mine.add(_UNORDERED_SINK)
    for callee_name, _line, pos_atoms, kw_atoms in summary.arg_flows:
        if callee_name not in sink_params:
            continue
        slotted = list(pos_atoms) + list(kw_atoms.values())
        if any(_unordered_in(atoms, ret_unordered) for atoms in slotted):
            mine.add(_UNORDERED_SINK)
    return len(mine) != before


def _update_mutated(
    summary: EffectSummary,
    functions: Dict[str, EffectSummary],
    mutated: Dict[str, Set[str]],
) -> bool:
    mine = mutated[summary.qualname]
    changed = False
    for callee_name, _line, pos_atoms, kw_atoms in summary.arg_flows:
        callee = functions.get(callee_name)
        if callee is None:
            continue
        theirs = mutated.get(callee_name, set())
        if not theirs:
            continue
        for target, atoms in slot_params(callee, pos_atoms, kw_atoms):
            if target not in theirs:
                continue
            for atom in atoms:
                label, _, payload = atom.partition(":")
                if label == "param" and payload not in mine:
                    mine.add(payload)
                    changed = True
    return changed


def _update_ret_unordered(
    summary: EffectSummary, ret_unordered: Dict[str, bool]
) -> bool:
    if ret_unordered[summary.qualname]:
        return False
    if _unordered_in(summary.ret_atoms, ret_unordered):
        ret_unordered[summary.qualname] = True
        return True
    return False


def _tier(
    flags: Set[str], mutated: Set[str], ret_unordered: bool
) -> str:
    ambient = EFFECT_AMBIENT in flags
    global_write = EFFECT_GLOBAL_WRITE in flags
    io = EFFECT_IO in flags
    unordered = _UNORDERED_SINK in flags or ret_unordered
    if not (ambient or global_write or io or mutated or unordered):
        return TIER_PURE
    if not (ambient or global_write or mutated or unordered):
        return TIER_POOL_SAFE
    if not (ambient or unordered):
        return TIER_DETERMINISTIC
    return TIER_EFFECTFUL


# ---------------------------------------------------------------------------
# Finding generation
# ---------------------------------------------------------------------------


def effect_findings(
    analysis: EffectAnalysis,
    sources: Dict[str, Sequence[str]],
    roots: Sequence[str] = CERTIFIED_ROOTS,
) -> List[Finding]:
    """REP201-REP205 findings from a propagated effect analysis."""
    sink = FindingSink(sources)
    emit = sink.emit
    functions: Dict[str, EffectSummary] = analysis.graph.functions
    sink_params = _serialization_params(functions, analysis.graph.modules)

    submit_targets = sorted(
        {
            target
            for summary in functions.values()
            for target, _line, _display in summary.submits
            if target
        }
    )
    guarded = analysis.graph.reachable(list(roots) + submit_targets)

    for extract in analysis.extracts:
        for qualname, summary in extract.functions.items():
            if qualname.endswith(MODULE_BODY):
                continue
            _shared_state_findings(
                extract, summary, qualname in guarded, emit
            )
            _closure_findings(extract, summary, emit)
            _unordered_findings(
                analysis, extract, summary, sink_params, emit
            )
            _aliasing_findings(extract, summary, emit)
            _submit_findings(analysis, extract, summary, functions, emit)
    return sink.sorted()


def _shared_state_findings(
    extract: EffectExtract,
    summary: EffectSummary,
    guarded: bool,
    emit: Callable[[str, str, int, str], None],
) -> None:
    if not guarded:
        return
    for name, line in summary.global_writes:
        emit(
            "REP201",
            extract.relpath,
            line,
            (
                f"write to module-level '{name}' in code reachable "
                "from a certified campaign entry point"
            ),
        )


def _closure_findings(
    extract: EffectExtract,
    summary: EffectSummary,
    emit: Callable[[str, str, int, str], None],
) -> None:
    for display, line, captured in summary.closure_submits:
        names = ", ".join(f"'{name}'" for name in captured)
        emit(
            "REP202",
            extract.relpath,
            line,
            (
                f"closure '{display}' capturing enclosing state "
                f"({names}) crosses an executor boundary"
            ),
        )


def _unordered_findings(
    analysis: EffectAnalysis,
    extract: EffectExtract,
    summary: EffectSummary,
    sink_params: Dict[str, Tuple[str, ...]],
    emit: Callable[[str, str, int, str], None],
) -> None:
    for sink, line, atoms in summary.sink_flows:
        if _unordered_in(atoms, analysis.ret_unordered):
            emit(
                "REP203",
                extract.relpath,
                line,
                (
                    "order-sensitive set iteration reaches durable "
                    f"sink {sink}"
                ),
            )
    for callee_name, line, pos_atoms, kw_atoms in summary.arg_flows:
        if callee_name not in sink_params:
            continue
        slotted = list(pos_atoms) + list(kw_atoms.values())
        if any(
            _unordered_in(atoms, analysis.ret_unordered)
            for atoms in slotted
        ):
            emit(
                "REP203",
                extract.relpath,
                line,
                (
                    "order-sensitive set-derived value handed to "
                    f"serializer {callee_name}"
                ),
            )


def _aliasing_findings(
    extract: EffectExtract,
    summary: EffectSummary,
    emit: Callable[[str, str, int, str], None],
) -> None:
    for param, line in summary.mutable_defaults:
        emit(
            "REP204",
            extract.relpath,
            line,
            (
                f"mutable default for parameter '{param}' is "
                "process-lifetime shared state"
            ),
        )
    mutated_lines = dict(reversed(summary.param_mutations))
    for param in summary.returned_params:
        if param in mutated_lines:
            emit(
                "REP204",
                extract.relpath,
                mutated_lines[param],
                (
                    f"parameter '{param}' is mutated and returned — "
                    "the result aliases the caller's argument"
                ),
            )


def _submit_findings(
    analysis: EffectAnalysis,
    extract: EffectExtract,
    summary: EffectSummary,
    functions: Dict[str, EffectSummary],
    emit: Callable[[str, str, int, str], None],
) -> None:
    for target, line, display in summary.submits:
        if not target or target not in functions:
            label = target or display
            emit(
                "REP205",
                extract.relpath,
                line,
                (
                    f"cannot certify '{label}' submitted to an "
                    "executor: callee is not statically analyzable"
                ),
            )
            continue
        tier = analysis.tier_of(target)
        if TIER_RANK[tier] < TIER_RANK[TIER_POOL_SAFE]:
            emit(
                "REP205",
                extract.relpath,
                line,
                (
                    f"'{target}' submitted to an executor but its "
                    f"certified tier is '{tier}' "
                    f"(effects: {analysis.effect_words(target)})"
                ),
            )

