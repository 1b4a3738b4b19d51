"""REP004: persistence must route through the atomic durable layer.

A crash mid-``write()`` leaves a truncated journal, profile, or report
on disk — exactly the corruption class PR 2's campaign engine exists to
rule out.  :mod:`repro.core.durable` is the single sanctioned writer:
``atomic_write_text``/``_json`` stage to a same-directory temp file,
fsync, rename, and fsync the directory; ``atomic_copy_json`` stages and
renames without the fsyncs, for a copy rebuilt from a durable original;
``DurableAppender`` holds one file open and fsyncs each append.
Everything else in the library must call it rather than reimplement (or
skip) those steps.

The rule flags write/append/create-mode ``open(...)`` calls and
``.write_text(...)`` / ``.write_bytes(...)`` attribute calls.  Read-mode
opens are untouched.

Bad::

    with open(path, "w") as fh:        # REP004
        fh.write(text)
    path.write_text(doc)               # REP004

Good::

    from repro.core.durable import atomic_write_text
    atomic_write_text(path, text)
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register

_WRITE_MODE_CHARS = frozenset("wax+")
_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})
#: What a finding tells the author to call instead.
_WRITERS = (
    "repro.core.durable.atomic_write_text/_json, atomic_copy_json "
    "(a rebuildable copy) or DurableAppender"
)


@register
class DurableWritesRule(Rule):
    code = "REP004"
    name = "durable-writes"
    summary = "file writes must go through repro.core.durable"
    rationale = (
        "Raw writes can be torn by a crash; the durable layer's "
        "temp+fsync+rename sequence is what makes journals and stores "
        "crash-safe."
    )
    node_types = (ast.Call,)
    allowlist = ("core/durable.py",)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name == "open":
            mode = _open_mode(node)
            if mode is not None and _WRITE_MODE_CHARS.intersection(mode):
                yield self.finding(
                    ctx,
                    node,
                    f"raw open(..., {mode!r}) is not crash-safe; use {_WRITERS}",
                )
            return
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _WRITE_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f".{node.func.attr}() is not crash-safe; use {_WRITERS}",
                )


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an open() call, None when read/unknown."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        for kw in node.keywords:
            if kw.arg == "mode":
                mode_node = kw.value
    if mode_node is None:
        return None  # default mode "r"
    if isinstance(mode_node, ast.Constant) and isinstance(
        mode_node.value, str
    ):
        return mode_node.value
    return None  # dynamic mode: give the author the benefit of the doubt
