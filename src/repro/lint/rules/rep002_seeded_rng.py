"""REP002: every random source must be explicitly seeded.

Reproducibility is the repo's product: the fault injector replays crash
schedules from a seed, the Poisson job-stream generator draws in a fixed
order from a seed, and dataset generators are seeded per dataset.  An
unseeded ``random.Random()``, the process-global ``random.*`` functions,
an unseeded ``numpy`` generator, or OS entropy (``uuid4``, ``secrets``,
``os.urandom``, ``SystemRandom``) silently couples results to
interpreter start-up state.

Names are matched after import resolution, so ``from random import
shuffle as mix; mix(items)`` is ``random.shuffle``.

Bad::

    rng = random.Random()                  # REP002: no seed
    random.shuffle(items)                  # REP002: global RNG
    rng = np.random.default_rng()          # REP002: no seed
    np.random.seed(7); np.random.rand()    # REP002: legacy global state
    run_id = uuid.uuid4().hex              # REP002: OS entropy

Good::

    rng = random.Random(f"{seed}:transient:{pass_index}")
    rng = np.random.default_rng(spec.seed)
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register
from repro.lint.rules.rep001_wall_clock import shown

#: Generator constructors that are sources only when called with no
#: arguments.
RNG_SEEDED_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"random.Random", "numpy.random.default_rng"}
)

#: Always-source RNG reads: process-global state or OS entropy.
OS_ENTROPY_SOURCES: FrozenSet[str] = frozenset(
    {
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
RNG_GLOBAL_SOURCES: FrozenSet[str] = (
    frozenset(
        f"random.{fn}"
        for fn in (
            "betavariate", "choice", "choices", "expovariate", "gauss",
            "getrandbits", "lognormvariate", "normalvariate",
            "paretovariate", "randbytes", "randint", "random", "randrange",
            "sample", "seed", "shuffle", "triangular", "uniform",
            "vonmisesvariate", "weibullvariate",
        )
    )
    | frozenset(
        f"numpy.random.{fn}"
        for fn in (
            "seed", "rand", "randn", "randint", "random", "random_sample",
            "choice", "shuffle", "permutation", "normal", "uniform",
            "poisson", "exponential", "binomial",
        )
    )
    | OS_ENTROPY_SOURCES
)


@register
class SeededRngRule(Rule):
    code = "REP002"
    name = "seeded-rng"
    summary = (
        "RNGs must be constructed with an explicit seed; no global or "
        "OS-entropy draws, aliases included"
    )
    rationale = (
        "Unseeded or process-global randomness couples results to "
        "interpreter start-up state, breaking byte-identical replay."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        canonical = ctx.symbols.resolve(name)
        if canonical in RNG_SEEDED_CONSTRUCTORS:
            if node.args or node.keywords:
                return
            message = (
                "{} without an explicit seed is non-reproducible; pass a "
                "seed derived from the run's seed material"
            )
        elif canonical in OS_ENTROPY_SOURCES:
            message = (
                "{} draws OS entropy and cannot be seeded; derive the "
                "value from the run's seed material"
            )
        elif canonical in RNG_GLOBAL_SOURCES:
            message = (
                "module-global {} uses shared interpreter RNG state; "
                "construct a seeded random.Random instead"
                if canonical.startswith("random.")
                else "legacy global {} mutates shared numpy RNG state; "
                "use a seeded np.random.default_rng(seed) generator"
            )
        else:
            return
        yield self.finding(ctx, node, message.format(shown(name, canonical)))
