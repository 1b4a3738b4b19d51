"""The rule registry: stable codes, one class per contract.

Rules self-register at import time via :func:`register`; importing
:mod:`repro.lint.rules` pulls in every built-in rule module.  Codes are
permanent API — reporters, baselines, and CI annotations key on them — so
the registry refuses duplicates and malformed codes outright.

A rule declares:

- ``code`` / ``name`` / ``summary`` — identity and the one-line table row.
- ``rationale`` — *why* the contract protects replay or durability
  (rendered by ``repro lint --list-rules`` and the docs table).
- ``node_types`` — the AST node classes it wants to see; the engine walks
  each file once and dispatches, so a rule never re-walks the tree.
- ``scope`` — path fragments the rule is restricted to (empty = all files).
- ``allowlist`` — path suffixes exempt from the rule (the sanctioned
  implementations of the contract, e.g. ``core/durable.py`` for the
  raw-write rule).
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple, Type

from repro.lint.context import ModuleContext
from repro.lint.errors import LintError
from repro.lint.findings import Finding, Fix
from repro.lint.symbols import dotted as dotted_name

__all__ = [
    "Rule",
    "ProgramRule",
    "RULES",
    "register",
    "all_rules",
    "dotted_name",
    "ModuleContext",
]

_CODE_RE = re.compile(r"^REP\d{3}$")

RULES: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for contract rules; subclasses register with a code."""

    code: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]
    rationale: ClassVar[str]
    fixable: ClassVar[bool] = False
    node_types: ClassVar[Tuple[type, ...]] = ()
    scope: ClassVar[Tuple[str, ...]] = ()
    allowlist: ClassVar[Tuple[str, ...]] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the module at ``relpath`` at all."""
        posix = relpath.replace("\\", "/")
        if any(posix.endswith(suffix) for suffix in self.allowlist):
            return False
        if self.scope and not any(frag in posix for frag in self.scope):
            return False
        return True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        """Inspect one node; yield findings (usually zero or one)."""
        raise NotImplementedError  # interface method; concrete rules override

    # Convenience used by every concrete rule.
    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        *,
        fix: Optional[Fix] = None,
    ) -> Finding:
        return Finding.at(
            self.code,
            message,
            ctx.relpath,
            getattr(node, "lineno", 1),
            ctx.lines,
            col=getattr(node, "col_offset", 0) + 1,
            fix=fix,
        )


@dataclasses.dataclass(frozen=True)
class ProgramRule:
    """Identity card of one whole-program rule (for tables and docs).

    The flow (REP104), effect (REP20x), and perf (REP30x) families need
    more than one node at a time — a module set, the call graph and
    per-function summaries — so they do not fit the
    node-dispatch :class:`Rule` interface; they share its stable-code
    contract — reporters, baselines, and ``--select`` key on the codes —
    and surface through the same :class:`~repro.lint.findings.Finding`.
    """

    code: str
    name: str
    summary: str
    rationale: str


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry; codes are unique."""
    code = getattr(cls, "code", "")
    if not _CODE_RE.match(code):
        raise LintError(
            f"rule {cls.__name__} has malformed code {code!r} "
            "(expected 'REP' + three digits)"
        )
    existing = RULES.get(code)
    if existing is not None and existing is not cls:
        raise LintError(
            f"duplicate rule code {code}: {existing.__name__} "
            f"and {cls.__name__}"
        )
    RULES[code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return [RULES[code]() for code in sorted(RULES)]
