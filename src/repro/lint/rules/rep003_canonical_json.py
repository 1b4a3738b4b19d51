"""REP003: JSON rendered outside the durable layer must sort its keys.

Journal records are checksummed, reports are compared byte-for-byte
across replays, and profiles round-trip through disk.  The durable layer
(:mod:`repro.core.durable`) owns the two encodings, both with sorted
keys: ``canonical_json`` (indented) for documents a person reads or a
golden pins, ``compact_json`` (one line) for bytes that are hashed or
sent.  Any *other* ``json.dump(s)`` call must at minimum pass
``sort_keys=True`` so its output does not depend on dict construction
order.

The rule is autofixable when ``sort_keys`` is simply absent: ``--fix``
appends ``sort_keys=True`` to the call.  An explicit ``sort_keys=False``
(or a non-literal value) is reported but never rewritten — that is a
deliberate choice the author must undo by hand.

Bad::

    json.dumps(payload)                     # REP003 (autofixable)
    json.dump(payload, fh, sort_keys=False)  # REP003 (manual)

Good::

    json.dumps(payload, sort_keys=True)
    atomic_write_json(path, payload)        # the durable layer
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.findings import Finding, Fix
from repro.lint.registry import ModuleContext, Rule, dotted_name, register


@register
class CanonicalJsonRule(Rule):
    code = "REP003"
    name = "canonical-json"
    summary = "json.dump(s) outside repro.core.durable needs sort_keys=True"
    rationale = (
        "Byte-identical replay and journal checksums require one "
        "canonical JSON form; unsorted keys leak dict construction "
        "order into persisted bytes."
    )
    fixable = True
    node_types = (ast.Call,)
    allowlist = ("core/durable.py",)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name not in ("json.dump", "json.dumps"):
            return
        sort_kw = None
        has_star_kwargs = False
        for kw in node.keywords:
            if kw.arg is None:
                has_star_kwargs = True
            elif kw.arg == "sort_keys":
                sort_kw = kw
        if sort_kw is None:
            if has_star_kwargs:
                # **kwargs may carry sort_keys; require it to be literal.
                yield self.finding(
                    ctx,
                    node,
                    f"{name}(**...) hides sort_keys; pass sort_keys=True "
                    "explicitly or route through repro.core.durable",
                )
                return
            yield self.finding(
                ctx,
                node,
                f"{name}() without sort_keys=True is not canonical JSON; "
                "add sort_keys=True or route through repro.core.durable",
                fix=_append_sort_keys_fix(ctx, node),
            )
            return
        value = sort_kw.value
        if not (isinstance(value, ast.Constant) and value.value is True):
            yield self.finding(
                ctx,
                node,
                f"{name}() must pass a literal sort_keys=True "
                "(found a non-True value); persisted JSON must be "
                "canonical",
            )


def _append_sort_keys_fix(
    ctx: ModuleContext, node: ast.Call
) -> Optional[Fix]:
    """Rewrite the call with ``sort_keys=True`` appended to its arguments."""
    segment = ctx.segment(node)
    if segment is None or not segment.endswith(")"):
        return None
    body = segment[:-1].rstrip()
    if body.endswith("("):
        rewritten = f"{body}sort_keys=True)"
    elif body.endswith(","):
        rewritten = f"{body} sort_keys=True)"
    else:
        rewritten = f"{body}, sort_keys=True)"
    return Fix(
        start_line=node.lineno,
        start_col=node.col_offset,
        end_line=node.end_lineno or node.lineno,
        end_col=node.end_col_offset or node.col_offset,
        replacement=rewritten,
    )
