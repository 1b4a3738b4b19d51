"""REP009: no unbounded waits in service, broker, or campaign paths.

A long-running layer — the prediction service, the broker, the campaign
runner — must never block forever on an external party: every socket,
subprocess, queue, lock, and thread interaction needs an explicit
timeout, or one stuck peer wedges the whole process and the deadline
budgets above it become fiction.  This is the micro-level twin of the
service's admission contract (over capacity, a request is shed at once
instead of waiting unboundedly).

The rule flags, inside the scoped paths:

- ``subprocess.run/call/check_call/check_output`` without ``timeout=``;
- ``socket.create_connection(...)`` without a timeout argument, and
  ``.settimeout(None)`` (which *removes* a bound);
- blocking rendezvous calls with no arguments at all —
  ``.acquire()`` / ``.wait()`` / ``.join()`` / ``.get()`` /
  ``.communicate()`` — the no-timeout forms of locks, events, threads,
  queues, and processes.  (String ``.join(parts)`` and ``dict.get(key)``
  always carry arguments, so they never match.)

Bad::

    proc = subprocess.run(cmd)          # REP009: can hang forever
    queue.get()                         # REP009: unbounded block

Good::

    proc = subprocess.run(cmd, timeout=60.0)
    queue.get(timeout=5.0)
    sock = socket.create_connection(addr, timeout=10.0)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register

#: Paths this contract governs: the long-running layers.
SCOPE_FRAGMENTS = ("repro/service/", "repro/broker/", "repro/campaign/")

_SUBPROCESS_CALLS = frozenset(
    {
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

_SOCKET_FACTORIES = frozenset({"socket.create_connection"})

#: Methods whose zero-argument form blocks without bound.
_RENDEZVOUS_METHODS = frozenset(
    {"acquire", "wait", "join", "get", "communicate"}
)


def _has_timeout(node: ast.Call) -> bool:
    return any(kw.arg == "timeout" for kw in node.keywords)


@register
class UnboundedWaitRule(Rule):
    code = "REP009"
    name = "no-unbounded-waits"
    summary = (
        "service/broker/campaign code must bound every blocking call "
        "with a timeout"
    )
    rationale = (
        "A long-running layer that can block forever on a socket, "
        "subprocess, queue, or lock turns one stuck peer into a wedged "
        "process; deadline budgets only mean something if every wait "
        "under them is bounded."
    )
    node_types = (ast.Call,)
    scope = SCOPE_FRAGMENTS

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _SUBPROCESS_CALLS and not _has_timeout(node):
            yield self.finding(
                ctx,
                node,
                f"{name}(...) without timeout= can hang forever; pass an "
                "explicit timeout",
            )
            return
        if name in _SOCKET_FACTORIES:
            # create_connection(addr[, timeout]): bounded either way.
            if len(node.args) < 2 and not _has_timeout(node):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}(...) without a timeout blocks until the "
                    "peer answers; pass timeout=",
                )
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "settimeout":
            if len(node.args) == 1 and isinstance(
                node.args[0], ast.Constant
            ) and node.args[0].value is None:
                yield self.finding(
                    ctx,
                    node,
                    "settimeout(None) removes the socket's bound and "
                    "re-enables unbounded blocking",
                )
            return
        if (
            func.attr in _RENDEZVOUS_METHODS
            and not node.args
            and not node.keywords
        ):
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() with no timeout blocks without bound; "
                "pass timeout= (or a bounded equivalent)",
            )
