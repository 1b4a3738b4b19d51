"""REP008: ledger node acquisition only inside the broker event loop.

The broker's correctness claim — every admitted job placed exactly once,
per-node reservation windows never overlapping — holds because *all*
``SitePool.acquire`` / ``release`` calls happen inside ``GridBroker``'s
event loop (``broker/engine.py``), interleaved with the simulated-time
event queue.  A helper that grabs nodes from a ledger directly races the
simulated clock: it mutates capacity at no defined event time, and the
queue-head placement invariant (predicted completion = queue wait +
T̂_exec) silently stops holding.

The rule flags ``.acquire(...)`` / ``.release(...)`` calls whose
receiver expression mentions a ledger or pool, anywhere outside the
engine (and the ledger's own implementation module).

Bad (in a policy or report module)::

    ids = ledger.pool(site).acquire(n, now, eta)      # REP008

Good::

    # ask the engine to place the job; only GridBroker touches the ledger
    choice = policy.choose_index(job, feasible, totals, now)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, register

_MUTATORS = frozenset({"acquire", "release"})
_RECEIVER_MARKERS = ("ledger", "pool")


@register
class LedgerDisciplineRule(Rule):
    code = "REP008"
    name = "ledger-discipline"
    summary = "ledger/pool acquire/release only inside GridBroker's loop"
    rationale = (
        "Node capacity may only change at event-queue time inside the "
        "broker engine; outside mutation races the simulated clock."
    )
    node_types = (ast.Call,)
    allowlist = ("broker/engine.py", "broker/events.py")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _MUTATORS:
            return
        receiver = ctx.segment(func.value) or ""
        lowered = receiver.lower()
        if any(marker in lowered for marker in _RECEIVER_MARKERS):
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() on a grid ledger/pool outside the "
                "broker engine mutates capacity at no defined simulated "
                "time; route placement through GridBroker's event loop",
            )
