"""The performance rule family REP301-REP304: hot-path cost contracts.

REP00x checks one AST node at a time, the flow layer (REP104) the
prediction core's units, the effect layer (REP20x) follows *effects*;
this family follows *cost*: what a function allocates,
scans, and recomputes per iteration of its loops.

The hot set is declared with :func:`repro.hotpath.hot` and closed
over the project call graph: every function reachable from a declared
entry is in the *hot region*, and REP301-REP304 only fire inside it —
cold code may allocate freely.  ``@hot`` declares where the rules
apply; what is actually hot is measured by the benchmark's
``--trace 1`` run.

Whole-program rules (:class:`repro.lint.registry.ProgramRule`).
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.lint.registry import ProgramRule

__all__ = [
    "PERF_RULES",
    "PERF_CODES",
    "HOT_DECORATORS",
    "LISTY_CONSTRUCTORS",
    "LINEAR_SCAN_ATTRS",
]


PERF_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code="REP301",
        name="hot-loop-allocation",
        summary=(
            "no construction of a non-slotted project class inside a "
            "loop of a hot-region function"
        ),
        rationale=(
            "A per-event record built from a plain (dict-backed) class "
            "pays an attribute dictionary per instance — at six-figure "
            "event counts that is the difference between the simulator "
            "being the fastest path and being the bottleneck.  Slotted "
            "classes allocate a fixed-size struct instead; the fix is "
            "__slots__ (or dataclass(slots=True)), not removing the "
            "record."
        ),
    ),
    ProgramRule(
        code="REP302",
        name="superlinear-scan",
        summary=(
            "no linear membership test or index/count scan over a "
            "list-built collection inside a loop reachable from a hot "
            "entry"
        ),
        rationale=(
            "``x in completed`` against a list inside the job loop is "
            "O(n) per iteration — quadratic over the stream, invisible "
            "at test scale and dominant at trace scale.  The effect "
            "layer can certify the same function process-pool-safe: "
            "purity and asymptotics are independent axes, which is why "
            "this layer exists."
        ),
    ),
    ProgramRule(
        code="REP303",
        name="loop-invariant-pure-call",
        summary=(
            "no repeated call with loop-invariant arguments to a "
            "certified-pure function inside a hot loop"
        ),
        rationale=(
            "A pure call whose arguments do not change across "
            "iterations returns the same value every time; paying it "
            "per event multiplies a constant by the event count.  The "
            "determinism certificate's 'pure' tier is exactly the "
            "licence to hoist: no effect distinguishes one evaluation "
            "from many."
        ),
    ),
    ProgramRule(
        code="REP304",
        name="uncertified-hot-callee",
        summary=(
            "every function called inside a loop of the hot region "
            "must be effects-certified or itself declared hot"
        ),
        rationale=(
            "Per-iteration work must have audited cost and effects: a "
            "callee the effect analysis left uncertified (effectful) "
            "and nobody declared hot is unknown-cost code on the "
            "hottest path in the system.  Either certify it (fix the "
            "effect) or declare it hot (bring it under these rules) — "
            "silence is the one option the contract forbids."
        ),
    ),
)

PERF_CODES: FrozenSet[str] = frozenset(rule.code for rule in PERF_RULES)

# ---------------------------------------------------------------------------
# Static vocabularies
# ---------------------------------------------------------------------------

#: Canonical decorator qualnames that declare a function hot.  The
#: extractor resolves decorator expressions through the module import
#: table, so ``from repro.hotpath import hot as fast`` still registers.
HOT_DECORATORS: FrozenSet[str] = frozenset({"repro.hotpath.hot"})

#: Constructors/transforms whose result is list-backed — a membership
#: test against one of these is a linear scan (REP302).  ``dict``/``set``
#: results are deliberately absent: hashed membership is O(1).
LISTY_CONSTRUCTORS: FrozenSet[str] = frozenset({"list", "sorted"})

#: Method names that scan their (list) receiver linearly.
LINEAR_SCAN_ATTRS: FrozenSet[str] = frozenset({"index", "count", "remove"})
