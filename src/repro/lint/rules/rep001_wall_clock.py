"""REP001: no wall-clock reads in model or simulation paths.

The entire reproduction is built on *simulated* time: the broker's
replay guarantee (byte-identical reports for the same seed) and the
fault-recovery guarantee (bit-identical to fault-free runs) both die the
moment a model path consults the host's clock.  Wall-clock time is a
harness concern, and the only sanctioned reader is the campaign
watchdog, which enforces real deadlines on real processes.

Bad::

    started = time.time()          # REP001

Good::

    now = engine.now               # simulated clock owned by the engine
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    code = "REP001"
    name = "no-wall-clock"
    summary = "no wall-clock reads outside the watchdog allowlist"
    rationale = (
        "Model and simulation paths must depend only on simulated time; "
        "a host-clock read makes seeded replay non-deterministic."
    )
    node_types = (ast.Call,)
    # Sanctioned wall-clock readers: the watchdog (real deadlines on real
    # processes), the two harness drivers that report operator-facing
    # wall durations (campaign attempt timing, suite experiment timing),
    # and the service clock abstraction (MonotonicClock drives real HTTP
    # serving; simulated results only ever see VirtualClock).
    allowlist = (
        "campaign/watchdog.py",
        "campaign/runner.py",
        "workloads/suite.py",
        "service/clock.py",
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in WALL_CLOCK_CALLS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {name}() breaks seeded replay; use the "
                "simulated clock, or add this harness module to the "
                "REP001 allowlist",
            )
