"""The flow rule family REP101-REP104: identity, sources, and sinks.

Whole-program rules (:class:`repro.lint.registry.ProgramRule`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.lint.registry import ProgramRule

__all__ = [
    "FLOW_RULES",
    "FLOW_CODES",
    "CLOCK_SOURCES",
    "ENV_SOURCES",
    "RNG_SEEDED_CONSTRUCTORS",
    "RNG_GLOBAL_SOURCES",
    "DURABLE_SINKS",
    "SINK_MODULE_FRAGMENTS",
    "SOURCE_ALLOWLIST",
    "TAINT_CLOCK",
    "TAINT_ENV",
    "TAINT_RNG",
    "PUBLIC_API_FRAGMENTS",
]


FLOW_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code="REP101",
        name="clock-taint-to-sink",
        summary=(
            "no wall-clock or environment read may reach a serialized "
            "artifact, even through call chains"
        ),
        rationale=(
            "REP001 matches clock reads by surface name, so an aliased "
            "import or a helper function launders one into a journal or "
            "report unseen; taint tracking follows the value across "
            "call edges to the durable writers."
        ),
    ),
    ProgramRule(
        code="REP102",
        name="rng-taint-to-sink",
        summary=(
            "no unseeded-RNG draw may reach a serialized artifact, even "
            "through call chains"
        ),
        rationale=(
            "An unseeded draw hidden behind an alias or helper couples "
            "serialized results to interpreter start-up state; the "
            "taint pass follows it interprocedurally to the writers."
        ),
    ),
    ProgramRule(
        code="REP103",
        name="cross-module-error-escape",
        summary=(
            "public middleware/broker/campaign APIs must not leak "
            "builtin exceptions raised in their callees"
        ),
        rationale=(
            "REP005 bans the raise site itself; a public entry point "
            "calling a helper that raises ValueError still crashes "
            "embedders outside the ReproError contract.  The raise-set "
            "summary propagates uncaught builtins up the call graph."
        ),
    ),
    ProgramRule(
        code="REP104",
        name="dimensional-consistency",
        summary=(
            "prediction-model arithmetic must combine seconds, bytes, "
            "bytes/s, counts, and ratios coherently"
        ),
        rationale=(
            "T_exec = T_disk + T_network + T_compute only means "
            "anything if every term is seconds; adding seconds to "
            "bytes, multiplying two durations, or returning a ratio "
            "from a *_time function is a silent modeling bug no unit "
            "test of one formula catches."
        ),
    ),
)

FLOW_CODES: FrozenSet[str] = frozenset(rule.code for rule in FLOW_RULES)

# ---------------------------------------------------------------------------
# Taint kinds
# ---------------------------------------------------------------------------

TAINT_CLOCK = "clock"
TAINT_ENV = "env"
TAINT_RNG = "rng"

#: Taint kind → the rule code that reports it at a sink.
KIND_TO_CODE: Dict[str, str] = {
    TAINT_CLOCK: "REP101",
    TAINT_ENV: "REP101",
    TAINT_RNG: "REP102",
}

# ---------------------------------------------------------------------------
# Sources (canonical qualified names, post symbol resolution)
# ---------------------------------------------------------------------------

CLOCK_SOURCES: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Environment reads: ``os.getenv(...)`` calls and any load of
#: ``os.environ`` (subscript, ``.get``, iteration).
ENV_SOURCES: FrozenSet[str] = frozenset({"os.getenv", "os.environ"})

#: RNG constructors that are sources only when called with no arguments.
RNG_SEEDED_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
    }
)

#: Always-source RNG reads: process-global state or OS entropy.
RNG_GLOBAL_SOURCES: FrozenSet[str] = frozenset(
    {f"random.{fn}" for fn in (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    )}
    | {f"numpy.random.{fn}" for fn in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "normal", "uniform", "poisson",
        "exponential", "binomial",
    )}
    | {
        "random.SystemRandom",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

#: The durable writers: a tainted argument here is a tainted artifact.
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

#: Sanctioned wall-clock/host-state readers (mirrors the REP001
#: allowlist): reads *originating* in these modules carry no taint —
#: their operator-facing wall durations are reviewed and simulated
#: results never depend on them.
SOURCE_ALLOWLIST: Tuple[str, ...] = (
    "campaign/watchdog.py",
    "campaign/runner.py",
    "workloads/suite.py",
    "service/clock.py",
)

#: Modules whose public (non-underscore) functions and methods form the
#: embedder-facing API checked by REP103.
PUBLIC_API_FRAGMENTS: Tuple[str, ...] = (
    "/middleware/",
    "/broker/",
    "/campaign/",
)
