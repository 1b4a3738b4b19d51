"""The effect rule family REP203-REP205: determinism contracts.

REP00x checks one AST node at a time and the flow layer (REP104) the
units of the prediction core.  This family follows *effects* across
the call graph: writes to shared state, mutation of arguments, reads
of ambient process state, I/O, and order-sensitive iteration over
unordered collections.  Its propagated
result is the determinism certificate (``.repro-effects.json``), a
reviewed tier per function that may only shrink in risk: REP205
reports a function whose tier fell below the committed one, and the
perf layer reads the certificate's tiers.

Whole-program rules (:class:`repro.lint.registry.ProgramRule`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.lint.registry import ProgramRule
from repro.lint.rules.rep001_wall_clock import CLOCK_ALLOWLIST, CLOCK_SOURCES
from repro.lint.rules.rep002_seeded_rng import (
    RNG_GLOBAL_SOURCES,
    RNG_SEEDED_CONSTRUCTORS,
)

__all__ = [
    "EFFECT_RULES",
    "EFFECT_CODES",
    "EFFECT_AMBIENT",
    "EFFECT_GLOBAL_WRITE",
    "EFFECT_PARAM_MUTATION",
    "EFFECT_IO",
    "EFFECT_UNORDERED",
    "TIER_PURE",
    "TIER_POOL_SAFE",
    "TIER_DETERMINISTIC",
    "TIER_EFFECTFUL",
    "TIER_RANK",
    "AMBIENT_CALLS",
    "AMBIENT_KIND_BY_CALL",
    "AMBIENT_ALLOWLIST",
    "DURABLE_SINKS",
    "SINK_MODULE_FRAGMENTS",
    "MUTATOR_ATTRS",
    "ORDER_SANITIZERS",
    "SET_CONSTRUCTORS",
    "SET_RETURNING_ATTRS",
]


EFFECT_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code="REP203",
        name="unordered-iteration-to-sink",
        summary=(
            "no value derived from iterating an unordered collection "
            "(set/frozenset) may reach a serialized artifact"
        ),
        rationale=(
            "Set iteration order depends on insertion history and hash "
            "seeding; REP007 bans it inside serialization modules, but "
            "a list built from a set three calls away and handed to a "
            "report writer produces byte-different artifacts between "
            "runs and between processes.  The unordered mark propagates "
            "like taint until ``sorted()`` launders it."
        ),
    ),
    ProgramRule(
        code="REP204",
        name="mutable-default-or-aliased-return",
        summary=(
            "no mutable default argument, and no function may both "
            "mutate a parameter and return it"
        ),
        rationale=(
            "A mutable default is process-lifetime shared state that "
            "accumulates across calls — byte-identical replay breaks "
            "the second time the function runs.  Mutate-and-return "
            "aliasing hands the caller a value that is secretly the "
            "caller's own argument, so 'pure consumer' call sites "
            "mutate upstream state."
        ),
    ),
    ProgramRule(
        code="REP205",
        name="certificate-demotion",
        summary=(
            "no function may analyze below the tier the committed "
            "determinism certificate records for it"
        ),
        rationale=(
            "The certificate is a reviewed claim that a function is "
            "pure, process-pool-safe or deterministic.  An edit that "
            "adds a clock read, a shared-state write or an argument "
            "mutation quietly voids that claim; reporting the demotion "
            "makes weakening a proof a visible, reviewed change "
            "(--write-certificate --allow-demotions) rather than a "
            "silent one."
        ),
    ),
)

EFFECT_CODES: FrozenSet[str] = frozenset(rule.code for rule in EFFECT_RULES)

# ---------------------------------------------------------------------------
# Effect kinds (the summary lattice's flag set)
# ---------------------------------------------------------------------------

EFFECT_AMBIENT = "ambient"  # reads process-ambient nondeterminism
EFFECT_GLOBAL_WRITE = "global-write"  # writes module-level state
EFFECT_PARAM_MUTATION = "param-mutation"  # mutates a formal parameter
EFFECT_IO = "io"  # performs file/process I/O
EFFECT_UNORDERED = "unordered"  # unordered iteration feeds output

# ---------------------------------------------------------------------------
# Certificate tiers, best to worst.  A function's tier is the highest
# one whose flag constraints its *transitive* effect set satisfies:
#
#   pure               — no effects at all
#   process-pool-safe  — no ambient reads, no global writes, no
#                        mutation of its own formals, no unordered
#                        output (I/O allowed: a worker may write its
#                        own artifacts deterministically)
#   deterministic      — no ambient reads, no unordered output
#   effectful          — everything else (uncertified)
# ---------------------------------------------------------------------------

TIER_PURE = "pure"
TIER_POOL_SAFE = "process-pool-safe"
TIER_DETERMINISTIC = "deterministic"
TIER_EFFECTFUL = "effectful"

TIER_RANK: Dict[str, int] = {
    TIER_PURE: 3,
    TIER_POOL_SAFE: 2,
    TIER_DETERMINISTIC: 1,
    TIER_EFFECTFUL: 0,
}

# ---------------------------------------------------------------------------
# Ambient-nondeterminism sources (canonical qualified names).  The
# clock/env/rng sets are REP001's and REP002's; the process-identity set
# is this layer's own — os.getpid() is harmless in serial runs and a
# result-splitting distinguisher under a process pool.
# ---------------------------------------------------------------------------

_PROCESS_IDENTITY_CALLS: FrozenSet[str] = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.getcwd",
        "os.uname",
        "threading.get_ident",
        "threading.get_native_id",
        "socket.gethostname",
        "platform.node",
        "id",
    }
)

#: call qualname -> ambient kind label used in messages/certificates.
AMBIENT_KIND_BY_CALL: Dict[str, str] = (
    {name: "clock" for name in CLOCK_SOURCES}
    | {name: "rng" for name in RNG_GLOBAL_SOURCES}
    | {name: "process-identity" for name in _PROCESS_IDENTITY_CALLS}
    | {"os.getenv": "env"}
)

AMBIENT_CALLS: FrozenSet[str] = frozenset(AMBIENT_KIND_BY_CALL)

#: RNG constructors are ambient only when called unseeded (no args);
#: REP002's definition.
UNSEEDED_RNG_CONSTRUCTORS = RNG_SEEDED_CONSTRUCTORS

#: Module-path suffixes whose *direct* ambient reads are sanctioned
#: (reviewed operator-facing wall durations; never result-bearing):
#: REP001's allowlist.
AMBIENT_ALLOWLIST: Tuple[str, ...] = CLOCK_ALLOWLIST

# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

#: The durable writers: an unordered argument here is an unordered
#: artifact.
DURABLE_SINKS: FrozenSet[str] = frozenset(
    {
        "repro.core.durable.DurableAppender",
        "repro.core.durable.atomic_copy_json",
        "repro.core.durable.atomic_write_json",
        "repro.core.durable.atomic_write_text",
        "repro.core.durable.canonical_json",
        "repro.core.durable.compact_json",
        "repro.core.durable.content_digest",
    }
)

#: Project functions defined in modules whose path matches one of these
#: fragments are sinks too (the REP007 serialization scope).
SINK_MODULE_FRAGMENTS: Tuple[str, ...] = (
    "serialize",
    "report",
    "reporter",
    "journal",
    "store",
    "results_io",
)

# ---------------------------------------------------------------------------
# Mutation and ordering vocabularies
# ---------------------------------------------------------------------------

#: Method names that mutate their receiver in place.
MUTATOR_ATTRS: FrozenSet[str] = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "setdefault", "popitem",
        "appendleft", "extendleft", "popleft",
        "intersection_update", "difference_update",
        "symmetric_difference_update",
    }
)

#: Calls whose result is order-insensitive even over an unordered
#: input, so they launder the unordered mark.
ORDER_SANITIZERS: FrozenSet[str] = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "frozenset", "set"}
)

#: Expressions that build unordered collections.
SET_CONSTRUCTORS: FrozenSet[str] = frozenset({"set", "frozenset"})

#: Set methods returning sets — set-ness survives through them.
SET_RETURNING_ATTRS: FrozenSet[str] = frozenset(
    {
        "union", "intersection", "difference", "symmetric_difference",
        "copy",
    }
)
