"""Per-module extraction: serializable local dataflow summaries.

One parse per module produces, for every function (and for the module
body itself, as the synthetic function ``<module>``):

- ``ret_atoms`` — what the return value depends on, as *atoms*:
  ``source:clock|env|rng`` (a direct nondeterministic read),
  ``call:<qualname>`` (the return value of a callee), and
  ``param:<name>`` (a formal parameter).
- ``sink_flows`` — durable-writer calls with the atoms of their
  arguments.
- ``arg_flows`` — arguments passed to resolvable callees with their
  atoms (how taint crosses call edges into wrapper sinks).
- ``calls`` — resolved call edges, each with the exception names any
  enclosing ``except`` clauses would catch.
- ``raises`` — builtin exceptions raised directly and not caught
  locally (the REP103 seed; REP005's builtin table is reused).
- ``direct_sources`` / ``io_calls`` — the purity facts.

The walk itself — two flow-insensitive passes, atoms as plain strings,
summaries as JSON-ready dicts — is :mod:`repro.lint.atoms`, shared with
the effect extractor; the cross-module propagation that turns summaries
into findings is cheap and re-runs every time (see
:mod:`repro.lint.flow.propagate`).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, Optional, Sequence, Set

from repro.lint.atoms import (
    AtomSummary,
    AtomWalker,
    SummaryExtract,
    extract_functions,
)
from repro.lint.context import ModuleContext
from repro.lint.flow.ruledefs import (
    CLOCK_SOURCES,
    DURABLE_SINKS,
    RNG_GLOBAL_SOURCES,
    RNG_SEEDED_CONSTRUCTORS,
    SOURCE_ALLOWLIST,
    TAINT_CLOCK,
    TAINT_ENV,
    TAINT_RNG,
)
from repro.lint.rules.rep005_repro_errors import BUILTIN_EXCEPTIONS
from repro.lint.symbols import dotted

__all__ = ["FunctionSummary", "ModuleExtract", "extract_module"]

#: Builtin exception → builtin subclasses an ``except`` for it covers.
_BUILTIN_SUBCLASSES: Dict[str, Set[str]] = {
    "LookupError": {"KeyError", "IndexError"},
    "ArithmeticError": {"ZeroDivisionError", "OverflowError"},
    "OSError": {"IOError"},
    "ValueError": {"UnicodeError"},
}


def handler_covers(caught: Sequence[str], exc: str) -> bool:
    """Whether any caught-name in ``caught`` swallows builtin ``exc``."""
    for name in caught:
        if name in ("*", "BaseException", "Exception"):
            return True
        if name == exc or exc in _BUILTIN_SUBCLASSES.get(name, ()):
            return True
    return False


@dataclasses.dataclass
class FunctionSummary(AtomSummary):
    """Local (callee-independent) dataflow facts of one function."""

    direct_sources: Dict[str, int] = dataclasses.field(default_factory=dict)
    raises: Dict[str, int] = dataclasses.field(default_factory=dict)
    io_calls: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            **super().to_dict(),
            "direct_sources": dict(self.direct_sources),
            "raises": dict(self.raises),
            "io_calls": self.io_calls,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            **cls.shared_fields(data),
            direct_sources={
                str(k): int(v) for k, v in data["direct_sources"].items()
            },
            raises={str(k): int(v) for k, v in data["raises"].items()},
            io_calls=int(data.get("io_calls", 0)),
        )


class ModuleExtract(SummaryExtract):
    """Everything the propagation pass needs about one module."""

    summary_type = FunctionSummary
    functions: Dict[str, FunctionSummary]


def extract_module(ctx: ModuleContext) -> ModuleExtract:
    """Extract every function summary from one parsed module."""
    return ModuleExtract(
        relpath=ctx.relpath,
        module=ctx.module,
        functions=extract_functions(ctx, _FunctionWalker, SOURCE_ALLOWLIST),
    )


class _FunctionWalker(AtomWalker):
    """Atom propagation reading off sources, sinks, raises, and I/O."""

    summary_type = FunctionSummary
    summary: FunctionSummary

    # ---- statements --------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            atoms = self._atoms(value) if value is not None else set()
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._bind_target(target, atoms)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._ret |= self._atoms(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            self._raise(stmt)
            return
        super()._stmt(stmt)  # loops, with, try, and the generic rest

    def _raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is not None:
            self._atoms(stmt.exc)
        if stmt.cause is not None:
            self._atoms(stmt.cause)
        if not self._collect or stmt.exc is None:
            return
        target = (
            stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        )
        name = self.symbols.resolve(dotted(target))
        leaf = name.rsplit(".", 1)[-1] if name else ""
        if leaf in BUILTIN_EXCEPTIONS and name == leaf:
            if not handler_covers(self._caught, leaf):
                self.summary.raises.setdefault(leaf, stmt.lineno)

    # ---- expressions -------------------------------------------------

    def _atoms(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Name):
            return self._name_atoms(node)
        if isinstance(node, ast.Attribute):
            resolved = self._resolve(dotted(node))
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                return self._source(TAINT_ENV, node.lineno)
            return self._atoms(node.value)
        result: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                result |= self._atoms(child)
            elif isinstance(child, ast.arguments):
                continue  # lambda signature
        if isinstance(node, ast.Lambda):
            result |= self._atoms(node.body)
        return result

    def _name_atoms(self, node: ast.Name) -> Set[str]:
        result = super()._name_atoms(node)
        if self._resolve(node.id) == "os.environ":
            result |= self._source(TAINT_ENV, node.lineno)
        return result

    def _call_atoms(self, node: ast.Call) -> Set[str]:
        pos_atoms, kw_atoms, arg_union = self._arg_atoms(node)
        result = set(arg_union)
        callee = self._resolve_callee(node.func)
        if isinstance(node.func, ast.Attribute):
            result |= self._atoms(node.func.value)
        elif not isinstance(node.func, ast.Name):
            result |= self._atoms(node.func)

        kind = self._source_kind(callee, node)
        if kind is not None:
            result |= self._source(kind, node.lineno)
            return result

        if callee and self._is_io(callee, node.func):
            self.summary.io_calls += 1
        if callee in DURABLE_SINKS:
            self.summary.io_calls += 1
            if self._collect:
                self.summary.sink_flows.append(
                    (callee, node.lineno, tuple(sorted(arg_union)))
                )
            return result
        if callee:
            result.add(f"call:{callee}")
            self._record_call(
                callee, node.lineno, pos_atoms, kw_atoms, arg_union
            )
        return result

    def _source(self, kind: str, lineno: int) -> Set[str]:
        if self._collect:
            self.summary.direct_sources.setdefault(kind, lineno)
        if self.allowlisted:
            return set()
        return {f"source:{kind}"}

    def _source_kind(
        self, callee: str, node: ast.Call
    ) -> Optional[str]:
        if not callee:
            return None
        if callee in CLOCK_SOURCES:
            return TAINT_CLOCK
        if callee == "os.getenv" or callee.startswith("os.environ"):
            return TAINT_ENV
        if callee in RNG_GLOBAL_SOURCES:
            return TAINT_RNG
        if callee in RNG_SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                return TAINT_RNG
        return None

    def _resolve(self, name: str) -> str:
        if not name:
            return ""
        return self.symbols.resolve(name)
