"""REP001: no wall-clock or environment reads in model or simulation paths.

The entire reproduction is built on *simulated* time: the broker's
replay guarantee (byte-identical reports for the same seed) and the
fault-recovery guarantee (bit-identical to fault-free runs) both die the
moment a model path consults the host's clock.  Wall-clock time is a
harness concern, and the only sanctioned readers are the allowlisted
harness modules below.  The process environment is host state of the
same kind: an ``os.getenv`` call or any use of ``os.environ`` makes a
result depend on the shell that ran it.

Names are matched after import resolution, so an alias is no hiding
place: ``from time import time as ticks; ticks()`` is ``time.time()``.
A formatter that reads the clock when given no time is a read too:
``email.utils.formatdate()`` with no ``timeval`` (or ``timeval=None``).

Bad::

    started = time.time()          # REP001
    started = ticks()              # REP001 (from time import time as ticks)
    scale = os.getenv("SCALE")     # REP001
    stamp = formatdate(usegmt=True)  # REP001 (the time is now)

Good::

    now = engine.now               # simulated clock owned by the engine
    stamp = formatdate(when_s, usegmt=True)  # the caller's time
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register

#: Wall-clock reads, by canonical (import-resolved) name.
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

#: Reads the clock when its ``timeval`` (first positional) is absent or None.
FORMATDATE = "email.utils.formatdate"

#: Sanctioned wall-clock readers: the watchdog (real deadlines on real
#: processes), the two harness drivers that report operator-facing wall
#: durations (campaign attempt timing, suite experiment timing), and the
#: service clock abstraction (MonotonicClock drives real HTTP serving;
#: simulated results only ever see VirtualClock).  The effect layer
#: exempts the same modules' ambient reads.
CLOCK_ALLOWLIST = (
    "campaign/watchdog.py",
    "campaign/runner.py",
    "workloads/suite.py",
    "service/clock.py",
)


def shown(surface: str, canonical: str, call: str = "()") -> str:
    """``surface`` as written, naming ``canonical`` when an alias hides it."""
    text = surface + call
    if surface.rsplit(".", 1)[-1] != canonical.rsplit(".", 1)[-1]:
        text += f" ({canonical})"
    return text


@register
class WallClockRule(Rule):
    code = "REP001"
    name = "no-wall-clock"
    summary = (
        "no wall-clock or environment reads outside the watchdog "
        "allowlist, aliases included"
    )
    rationale = (
        "Model and simulation paths must depend only on simulated time "
        "and their inputs; a host-clock or environment read makes seeded "
        "replay non-deterministic."
    )
    node_types = (ast.Call, ast.Attribute, ast.Name)
    allowlist = CLOCK_ALLOWLIST

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            canonical = ctx.symbols.resolve(name)
            if canonical in CLOCK_SOURCES or (
                canonical == FORMATDATE and _untimed(node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {shown(name, canonical)} breaks "
                    "seeded replay; use the simulated clock, or add this "
                    "harness module to the REP001 allowlist",
                )
            elif canonical == "os.getenv":
                yield self._env_read(ctx, node, shown(name, canonical))
            return
        # ``os.environ`` itself, however spelled; its ``.get`` and other
        # attributes are loads of this same node, so each use is one finding.
        if isinstance(node, ast.Attribute):
            if node.attr != "environ":
                return
        elif isinstance(node, ast.Name):
            if ctx.symbols.bindings.get(node.id) != "os.environ":
                return
        name = dotted_name(node)
        if ctx.symbols.resolve(name) == "os.environ":
            yield self._env_read(ctx, node, shown(name, "os.environ", ""))

    def _env_read(
        self, ctx: ModuleContext, node: ast.AST, shown_name: str
    ) -> Finding:
        return self.finding(
            ctx,
            node,
            f"environment read {shown_name} makes the result depend on "
            "the host; pass the value in explicitly",
        )


def _untimed(call: ast.Call) -> bool:
    """True when ``call`` passes no ``timeval``: none at all, or a None.

    A ``*args`` or ``**kwargs`` that may carry one counts as timed.
    """
    if call.args:
        first = call.args[0]
        return not isinstance(first, ast.Starred) and _is_none(first)
    for kw in call.keywords:
        if kw.arg is None or kw.arg == "timeval":
            return kw.arg is not None and _is_none(kw.value)
    return True


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None
