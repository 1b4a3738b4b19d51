"""Per-module cost extraction: serializable local perf summaries.

One parse per module produces, for every function, the *local* cost
facts the hot-region pass (``hotset.py``) closes over the call graph:

- ``calls`` / ``arg_flows`` — resolved call edges, shaped exactly like
  the flow layer's so :func:`repro.lint.callgraph.build_callgraph`
  works unchanged over perf extracts (``arg_flows`` is always empty —
  the cost lattice needs edges, not argument taint).
- ``is_hot`` — the function carries a resolved
  :data:`~repro.lint.perf.ruledefs.HOT_DECORATORS` decorator.
- ``loop_calls`` — every resolved call at loop depth >= 1 (REP304's
  candidate set).
- ``loop_constructions`` — CapWords-named constructions at loop depth
  >= 1, excluding exception construction under ``raise`` (REP301).
- ``loop_scans`` — linear membership (``in``/``not in``) or
  ``index``/``count``/``remove`` against a name this function provably
  built as a list (REP302).
- ``loop_invariant_calls`` — calls whose receiver chain and every
  argument are invariant across all enclosing loops (REP303; purity is
  judged later against the determinism certificate).

The module also records its classes with a ``slotted`` flag: REP301
only fires for classes that actually carry a per-instance ``__dict__``,
so ``__slots__``, ``dataclass(slots=True)``, ``NamedTuple``/``Enum``
layouts, and exception types (error-path, not steady-state) are exempt.

Same soundness caveats as the flow/effect extractors (DESIGN.md §13):
resolution is static and name-based; dynamic dispatch on values of
unknown class produces dangling edges the hot-region closure cannot
follow — which is why the inner-loop helpers of the broker and
simulator are decorated explicitly rather than discovered.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.atoms import SummaryExtract
from repro.lint.context import ModuleContext
from repro.lint.symbols import ModuleSymbols, dotted
from repro.lint.perf.ruledefs import (
    HOT_DECORATORS,
    LINEAR_SCAN_ATTRS,
    LISTY_CONSTRUCTORS,
)

__all__ = ["PerfSummary", "ClassInfo", "PerfExtract", "extract_perf"]

#: Dataclass decorator spellings (canonical) that accept ``slots=True``.
_DATACLASS_DECORATORS = frozenset({"dataclasses.dataclass"})

#: Base-class qualnames whose instances carry no per-instance dict.
_COMPACT_BASES = frozenset(
    {"typing.NamedTuple", "tuple", "enum.Enum", "enum.IntEnum", "enum.Flag"}
)


@dataclasses.dataclass
class PerfSummary:
    """Local (callee-independent) cost facts of one function."""

    qualname: str
    lineno: int
    is_hot: bool = False
    #: (resolved callee, line, ()) — callgraph-builder compatible
    calls: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    #: always empty; present so build_callgraph's unpacking works
    arg_flows: List[Any] = dataclasses.field(default_factory=list)
    #: (resolved callee, line) at loop depth >= 1
    loop_calls: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (resolved class name, line) constructed at loop depth >= 1
    loop_constructions: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (collection name, operation, line) linear scans in loops
    loop_scans: List[Tuple[str, str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (resolved callee, line) calls with fully loop-invariant inputs
    loop_invariant_calls: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "is_hot": self.is_hot,
            "calls": [list(c) for c in self.calls],
            "loop_calls": [list(c) for c in self.loop_calls],
            "loop_constructions": [
                list(c) for c in self.loop_constructions
            ],
            "loop_scans": [list(s) for s in self.loop_scans],
            "loop_invariant_calls": [
                list(c) for c in self.loop_invariant_calls
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfSummary":
        return cls(
            qualname=str(data["qualname"]),
            lineno=int(data["lineno"]),
            is_hot=bool(data["is_hot"]),
            calls=[
                (str(c[0]), int(c[1]), tuple(c[2]))
                for c in data["calls"]
            ],
            loop_calls=[
                (str(c[0]), int(c[1])) for c in data["loop_calls"]
            ],
            loop_constructions=[
                (str(c[0]), int(c[1]))
                for c in data["loop_constructions"]
            ],
            loop_scans=[
                (str(s[0]), str(s[1]), int(s[2]))
                for s in data["loop_scans"]
            ],
            loop_invariant_calls=[
                (str(c[0]), int(c[1]))
                for c in data["loop_invariant_calls"]
            ],
        )


@dataclasses.dataclass
class ClassInfo:
    """Layout facts of one project class (REP301's exemption input)."""

    qualname: str
    lineno: int
    slotted: bool  # compact layout or exempt (exception/enum/namedtuple)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "slotted": self.slotted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassInfo":
        return cls(
            qualname=str(data["qualname"]),
            lineno=int(data["lineno"]),
            slotted=bool(data["slotted"]),
        )


@dataclasses.dataclass
class PerfExtract(SummaryExtract):
    """Everything the hot-region pass needs from one module."""

    summary_type = PerfSummary
    functions: Dict[str, PerfSummary]
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            **super().to_dict(),
            "classes": {
                q: c.to_dict() for q, c in sorted(self.classes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfExtract":
        extract = super().from_dict(data)
        extract.classes = {
            q: ClassInfo.from_dict(c) for q, c in data["classes"].items()
        }
        return extract


def extract_perf(ctx: ModuleContext) -> PerfExtract:
    """Extract per-function cost summaries from one parsed module."""
    extract = PerfExtract(
        relpath=ctx.relpath, module=ctx.module, functions={}
    )
    for qualname, node, cls in ctx.defs.definitions:
        walker = _PerfWalker(qualname, node, cls, ctx.symbols)
        extract.functions[qualname] = walker.run()
    for qualname, class_node in ctx.defs.classes:
        extract.classes[qualname] = ClassInfo(
            qualname=qualname,
            lineno=class_node.lineno,
            slotted=_is_compact(class_node, ctx.symbols),
        )
    return extract


def _is_compact(node: ast.ClassDef, symbols: ModuleSymbols) -> bool:
    """Whether instances of this class carry no per-instance dict.

    ``__slots__``, ``dataclass(slots=True)``, NamedTuple/tuple/Enum
    layouts, and exception types (constructed on error paths, never in
    steady state) are all exempt from REP301.
    """
    for stmt in node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for dec in node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        name = dotted(call.func) if call else dotted(dec)
        if symbols.resolve(name) in _DATACLASS_DECORATORS and call:
            for kw in call.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    for base in node.bases:
        resolved = symbols.resolve(dotted(base))
        if resolved in _COMPACT_BASES:
            return True
        tail = resolved.rsplit(".", 1)[-1]
        if tail.endswith("Error") or tail.endswith("Exception"):
            return True
    return node.name.endswith("Error") or node.name.endswith("Exception")


class _PerfWalker:
    """Single-function walk tracking loop depth and loop-bound names."""

    def __init__(
        self,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: Optional[str],
        symbols: ModuleSymbols,
    ) -> None:
        self.summary = PerfSummary(qualname=qualname, lineno=node.lineno)
        self.node = node
        self.cls = cls
        self.symbols = symbols
        #: names bound by each enclosing loop, innermost last
        self.loop_stack: List[Set[str]] = []
        self.listy = _listy_locals(node, symbols)
        self.summary.is_hot = self._is_hot_decorated(node)

    # ---- entry -------------------------------------------------------

    def run(self) -> PerfSummary:
        self._walk(self.node.body)
        return self.summary

    def _is_hot_decorated(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if self.symbols.resolve(dotted(target)) in HOT_DECORATORS:
                return True
        return False

    # ---- statements --------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested definitions are extracted as their own units
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expression(stmt.iter)
            self.loop_stack.append(_bound_names(stmt))
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            self.loop_stack.pop()
            return
        if isinstance(stmt, ast.While):
            self.loop_stack.append(_bound_names(stmt))
            self._expression(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            self.loop_stack.pop()
            return
        if isinstance(stmt, ast.Raise):
            # Exception construction is error-path, not per-iteration
            # steady state: visit operands without recording REP301.
            if stmt.exc is not None:
                self._expression(stmt.exc, in_raise=True)
            if stmt.cause is not None:
                self._expression(stmt.cause, in_raise=True)
            return
        for _name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._expression(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._expression(item)
                    elif isinstance(item, ast.stmt):
                        self._statement(item)
                    elif isinstance(item, ast.withitem):
                        self._expression(item.context_expr)
                    elif isinstance(item, ast.excepthandler):
                        self._walk(item.body)
                    elif hasattr(ast, "match_case") and isinstance(
                        item, ast.match_case
                    ):
                        self._walk(item.body)

    # ---- expressions -------------------------------------------------

    def _expression(self, node: ast.expr, in_raise: bool = False) -> None:
        if isinstance(node, ast.Call):
            self._call(node, in_raise)
            return
        if isinstance(node, ast.Compare):
            self._compare(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expression(child)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            self._comprehension(node)
            return
        if isinstance(node, ast.Lambda):
            return  # deferred body; its cost is charged where it runs
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expression(child, in_raise)
            elif isinstance(child, ast.keyword):
                self._expression(child.value, in_raise)

    def _comprehension(self, node: ast.expr) -> None:
        generators = node.generators  # type: ignore[attr-defined]
        # The first iterable is evaluated once, outside the implicit loop.
        self._expression(generators[0].iter)
        bound: Set[str] = set()
        for gen in generators:
            bound |= _target_names(gen.target)
        self.loop_stack.append(bound)
        for gen in generators[1:]:
            self._expression(gen.iter)
        for gen in generators:
            for cond in gen.ifs:
                self._expression(cond)
        if isinstance(node, ast.DictComp):
            self._expression(node.key)
            self._expression(node.value)
        else:
            self._expression(node.elt)  # type: ignore[attr-defined]
        self.loop_stack.pop()

    def _call(self, node: ast.Call, in_raise: bool) -> None:
        callee = self._resolve_callee(node.func)
        line = node.lineno
        if callee:
            self.summary.calls.append((callee, line, ()))
        in_loop = bool(self.loop_stack)
        if in_loop and callee:
            self.summary.loop_calls.append((callee, line))
            tail = callee.rsplit(".", 1)[-1]
            if not in_raise and tail[:1].isupper():
                self.summary.loop_constructions.append((callee, line))
            if self._call_invariant(node):
                self.summary.loop_invariant_calls.append((callee, line))
        if (
            in_loop
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LINEAR_SCAN_ATTRS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.listy
        ):
            self.summary.loop_scans.append(
                (node.func.value.id, f".{node.func.attr}()", line)
            )
        for arg in node.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            self._expression(inner, in_raise)
        for kw in node.keywords:
            self._expression(kw.value, in_raise)
        if isinstance(node.func, ast.Attribute):
            self._expression(node.func.value, in_raise)

    def _compare(self, node: ast.Compare) -> None:
        if not self.loop_stack:
            return
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if (
                isinstance(comparator, ast.Name)
                and comparator.id in self.listy
            ):
                word = "in" if isinstance(op, ast.In) else "not in"
                self.summary.loop_scans.append(
                    (comparator.id, word, node.lineno)
                )

    # ---- invariance --------------------------------------------------

    def _call_invariant(self, node: ast.Call) -> bool:
        """All inputs constant or bound outside every enclosing loop."""
        loop_bound: Set[str] = set()
        for names in self.loop_stack:
            loop_bound |= names
        if isinstance(node.func, ast.Attribute):
            if not self._value_invariant(node.func.value, loop_bound):
                return False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                return False
            if not self._value_invariant(arg, loop_bound):
                return False
        for kw in node.keywords:
            if kw.arg is None:
                return False
            if not self._value_invariant(kw.value, loop_bound):
                return False
        return True

    def _value_invariant(
        self, node: ast.expr, loop_bound: Set[str]
    ) -> bool:
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id not in loop_bound
        if isinstance(node, ast.Attribute):
            return self._value_invariant(node.value, loop_bound)
        if isinstance(node, ast.Tuple):
            return all(
                self._value_invariant(e, loop_bound) for e in node.elts
            )
        if isinstance(node, ast.UnaryOp):
            return self._value_invariant(node.operand, loop_bound)
        return False

    # ---- name resolution ---------------------------------------------

    def _resolve_callee(self, func: ast.expr) -> str:
        # Unlike symbols.resolve_callee this keeps ``self.x`` edges the
        # module does not define: REP301 looks constructions up among
        # *classes*, which the function index does not list.
        name = dotted(func)
        if not name:
            return ""
        head, _, rest = name.partition(".")
        if head in ("self", "cls") and self.cls is not None and rest:
            prefix = (
                f"{self.symbols.module}.{self.cls}"
                if self.symbols.module
                else self.cls
            )
            return f"{prefix}.{rest}"
        return self.symbols.resolve(name)


def _target_names(node: ast.expr) -> Set[str]:
    out: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
    return out


def _bound_names(loop: ast.stmt) -> Set[str]:
    """Every name assigned anywhere inside one loop statement."""
    out: Set[str] = set()
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        out |= _target_names(loop.target)
    for child in ast.walk(loop):
        if isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            out.add(child.id)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            out |= _target_names(child.target)
        elif isinstance(child, ast.comprehension):
            out |= _target_names(child.target)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            out.add(child.name)
    return out


def _listy_locals(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    symbols: ModuleSymbols,
) -> Set[str]:
    """Names this function provably binds to a plain list.

    Flow-insensitive: a name ever assigned from a list display, list
    comprehension, or ``list()``/``sorted()`` call is listy.  Parameters
    and attributes are never listy — the rule under-approximates rather
    than flag hashed membership.
    """
    listy: Set[str] = set()
    for child in ast.walk(node):
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(child, ast.Assign):
            value, targets = child.value, child.targets
        elif isinstance(child, ast.AnnAssign) and child.value is not None:
            value, targets = child.value, [child.target]
        elif isinstance(child, ast.AugAssign):
            continue
        if value is None:
            continue
        is_listy = isinstance(value, (ast.List, ast.ListComp)) or (
            isinstance(value, ast.Call)
            and symbols.resolve(dotted(value.func)) in LISTY_CONSTRUCTORS
        )
        if not is_listy:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                listy.add(target.id)
    return listy
