"""The effect rule family REP201-REP205: parallel-safety contracts.

The third lint layer.  REP00x checks one AST node at a time; the flow
layer (REP10x) follows *values* from nondeterministic sources to
durable sinks.  This family follows *effects*: writes to shared state,
mutation of arguments, reads of ambient process state, I/O, and
order-sensitive iteration over unordered collections.  Its propagated
result is the determinism certificate (``.repro-effects.json``) that
gates the process-pool campaign executor — the same purity discipline
history-based predictors assume when replaying recorded workloads.

Whole-program rules (:class:`repro.lint.registry.ProgramRule`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.lint.flow.ruledefs import (
    CLOCK_SOURCES,
    RNG_GLOBAL_SOURCES,
    RNG_SEEDED_CONSTRUCTORS,
)
from repro.lint.registry import ProgramRule

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
    "EXECUTOR_TYPES",
    "EXECUTOR_SUBMIT_ATTRS",
    "MUTATOR_ATTRS",
    "ORDER_SANITIZERS",
    "SET_CONSTRUCTORS",
    "SET_RETURNING_ATTRS",
    "CERTIFIED_ROOTS",
]


EFFECT_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code="REP201",
        name="shared-state-write",
        summary=(
            "no write to module-level mutable state from code reachable "
            "from a certified entry point or a pool-submitted function"
        ),
        rationale=(
            "A module-global counter or cache written under a campaign "
            "driver is invisible shared state: serial runs thread it "
            "through every entry, worker processes each get a private "
            "copy, and the two executions silently diverge.  The effect "
            "summary propagates the write up the call graph to every "
            "certified root it can reach."
        ),
    ),
    ProgramRule(
        code="REP202",
        name="closure-over-pool-boundary",
        summary=(
            "no closure or lambda capturing enclosing function state may "
            "cross an executor submit/map boundary"
        ),
        rationale=(
            "A closure submitted to a process pool captures variables by "
            "reference in the parent but by pickled copy in the worker; "
            "a captured list that the parent keeps appending to is a "
            "data race in thread pools and a silent stale snapshot in "
            "process pools.  Neither the AST rules nor value-taint "
            "tracking see it: the capture is an effect, not a value "
            "flow."
        ),
    ),
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
        name="uncertified-pool-submit",
        summary=(
            "only functions certified process-pool-safe may be "
            "submitted to an executor"
        ),
        rationale=(
            "Parallel speedup is only trustworthy if every submitted "
            "function provably has no effect that distinguishes worker "
            "processes from in-process calls: no ambient "
            "nondeterminism, no shared-state writes, no argument "
            "mutation, no order-sensitive output.  The certificate is "
            "that proof; submitting anything else is parallelism by "
            "hope."
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
# clock/env/rng sets are the flow layer's; the process-identity set is
# new — os.getpid() is harmless in serial runs and a result-splitting
# distinguisher under a process pool.
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

#: RNG constructors are ambient only when called unseeded (no args) —
#: re-exported so the extractor shares one definition with the flow
#: layer.
UNSEEDED_RNG_CONSTRUCTORS = RNG_SEEDED_CONSTRUCTORS

#: Module-path suffixes whose *direct* ambient reads are sanctioned
#: (reviewed operator-facing wall durations; never result-bearing).
#: Mirrors the flow layer's SOURCE_ALLOWLIST.
AMBIENT_ALLOWLIST: Tuple[str, ...] = (
    "campaign/watchdog.py",
    "campaign/runner.py",
    "workloads/suite.py",
    "service/clock.py",
)

# ---------------------------------------------------------------------------
# Executor boundaries
# ---------------------------------------------------------------------------

#: Constructors whose instances are executors; a ``.submit``/``.map``
#: attribute call on a value built from one of these is a pool boundary.
EXECUTOR_TYPES: FrozenSet[str] = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.Executor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Attribute names that hand a callable to an executor.  The first
#: argument of ``submit``/``apply_async`` and of the map family is the
#: submitted callable.
EXECUTOR_SUBMIT_ATTRS: FrozenSet[str] = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
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

# ---------------------------------------------------------------------------
# Certified roots: the two callables ``campaign.runner.execute_entry``
# submits to the process-pool executor.  Everything they reach — the one
# grid driver, the workloads, the runtime, the models — is a statically
# resolved call edge from here.  REP201 anchors shared-state findings on
# reachability from these, and the certificate-coverage test walks the
# call graph from them.
# ---------------------------------------------------------------------------

CERTIFIED_ROOTS: Tuple[str, ...] = (
    "repro.workloads.experiments.run_experiment",
    "repro.workloads.experiments.run_fault_scenario",
)
