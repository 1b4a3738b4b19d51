"""REP104: dimensional analysis of the prediction-model arithmetic.

The prediction core computes with five physical kinds of quantity —
seconds, bytes, bytes/second, dimensionless counts, and dimensionless
ratios.  The paper's formulas only mean anything when each term carries
the unit the formula expects (``T_exec = T_disk + T_network + T_compute``
is a sum of seconds; ``bandwidth = bytes / seconds``), so the checker
abstract-interprets every function body in the core model modules over
a small unit lattice and flags:

- adding or subtracting two different known units,
- multiplying two durations,
- assigning a value of one unit to a name conventionally of another,
- passing a keyword argument whose unit contradicts the target name,
- returning a unit that contradicts the return annotation or the
  function's own name convention.

Units come from three places, most-specific first: ``Annotated`` alias
annotations from :mod:`repro.core.units` (``Seconds``, ``Bytes``,
``BytesPerSecond``, ``Count``, ``Ratio``) on dataclass fields, method
returns, and parameters; a shared attribute-name → unit map harvested
from every annotated class field in the checked module set; and
parameter/variable naming conventions (``t_*``/``*_time`` → seconds,
``*_bytes`` → bytes, ``*bandwidth``/``*_bw`` → bytes/s, ``num_*``/
``*_nodes``/``*_count`` → count, ``*_ratio``/``*_factor`` → ratio).
Numeric literals and anything unrecognized are ⊤ (unknown), which is
compatible with everything — the checker under-reports rather than
guessing.

Unit facts are cross-module (the attribute map), so the verdict is one
value over the whole module set: :class:`repro.lint.flow.FlowPass`
caches it keyed by every checked module's digest, never per module.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.registry import ProgramRule

__all__ = [
    "FLOW_CODES",
    "FLOW_RULES",
    "UNITS_SCOPE_STEMS",
    "applies_to_units",
    "check_units",
]

CODE = "REP104"

FLOW_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code=CODE,
        name="dimensional-consistency",
        summary=(
            "prediction-model arithmetic must combine seconds, bytes, "
            "bytes/s, counts, and ratios coherently"
        ),
        rationale=(
            "T_exec = T_disk + T_network + T_compute only means "
            "anything if every term is seconds; adding seconds to "
            "bytes, multiplying two durations, or returning a ratio "
            "from a *_time function is a silent modeling bug no unit "
            "test of one formula catches."
        ),
    ),
)

FLOW_CODES: FrozenSet[str] = frozenset(rule.code for rule in FLOW_RULES)

SECONDS = "s"
BYTES = "B"
BANDWIDTH = "B/s"
COUNT = "count"
RATIO = "ratio"

#: Annotation spellings (the repro.core.units aliases) → unit.
_ALIAS_UNITS = {
    "Seconds": SECONDS,
    "Bytes": BYTES,
    "BytesPerSecond": BANDWIDTH,
    "Count": COUNT,
    "Ratio": RATIO,
}

#: The prediction-model modules the checker runs over.
UNITS_SCOPE_STEMS = frozenset(
    {
        "models",
        "profile",
        "heterogeneous",
        "degraded",
        "units",
    }
)


def applies_to_units(relpath: str) -> bool:
    posix = relpath.replace("\\", "/")
    return (
        "core/" in posix
        and pathlib.PurePosixPath(posix).stem in UNITS_SCOPE_STEMS
    )


def unit_for_name(name: str) -> Optional[str]:
    """Unit implied by a variable/parameter/attribute name, if any."""
    n = name.lower()
    if n.endswith("_bytes") or n in ("nbytes", "max_bytes"):
        return BYTES
    if n.endswith("_bw") or "bandwidth" in n:
        return BANDWIDTH
    if (
        n.startswith("t_")
        or n.endswith("_s")
        or n.endswith("_time")
        or n.endswith("_seconds")
        or n in ("total", "elapsed", "duration")
    ):
        return SECONDS
    if (
        n.startswith("num_")
        or n.endswith(("_nodes", "_slots", "_count", "_chunks"))
        or n in ("count", "chunks", "nodes", "slots")
    ):
        return COUNT
    if n.endswith(("_ratio", "_fraction", "_factor")) or n == "ratio":
        return RATIO
    return None


def _annotation_unit(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return _ALIAS_UNITS.get(node.id)
    if isinstance(node, ast.Attribute):
        return _ALIAS_UNITS.get(node.attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String (deferred) annotation, e.g. under future annotations.
        return _ALIAS_UNITS.get(node.value)
    return None


@dataclasses.dataclass
class UnitContext:
    """Cross-module unit facts shared by every checked function."""

    #: attribute/field name → unit, from annotated class fields
    attributes: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: function/method name → annotated return unit
    returns: Dict[str, str] = dataclasses.field(default_factory=dict)

    @classmethod
    def collect(
        cls, modules: Sequence[Tuple[str, ast.Module]]
    ) -> "UnitContext":
        ctx = cls()
        for _relpath, tree in modules:
            for node in ast.walk(tree):
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    unit = _annotation_unit(node.annotation)
                    if unit is not None:
                        ctx.attributes.setdefault(node.target.id, unit)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    unit = _annotation_unit(node.returns)
                    if unit is not None:
                        ctx.returns.setdefault(node.name, unit)
        return ctx

    def unit_of_attribute(self, name: str) -> Optional[str]:
        unit = self.attributes.get(name)
        if unit is not None:
            return unit
        return unit_for_name(name)


def check_units(
    modules: Sequence[Tuple[str, ast.Module]],
    sources: Dict[str, Sequence[str]],
) -> List[Finding]:
    """Run the dimensional checker over parsed (relpath, tree) modules."""
    ctx = UnitContext.collect(modules)
    findings: List[Finding] = []
    for relpath, tree in modules:
        lines = sources.get(relpath, ())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checker = _FunctionUnits(ctx, relpath, lines)
                findings.extend(checker.check(node))
    findings.sort(key=Finding.sort_key)
    return findings


class _FunctionUnits:
    """Abstract interpretation of one function over the unit lattice."""

    def __init__(
        self,
        ctx: UnitContext,
        relpath: str,
        lines: Sequence[str],
    ) -> None:
        self.ctx = ctx
        self.relpath = relpath
        self.lines = lines
        self.env: Dict[str, str] = {}
        self.findings: List[Finding] = []

    def check(self, node: ast.AST) -> List[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            unit = _annotation_unit(arg.annotation) or unit_for_name(
                arg.arg
            )
            if unit is not None:
                self.env[arg.arg] = unit
        expected = _annotation_unit(node.returns) or unit_for_name(
            node.name
        )
        self._walk(node.body, node.name, expected)
        return self.findings

    def _walk(
        self,
        stmts: Sequence[ast.stmt],
        fname: str,
        ret_unit: Optional[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested defs are visited by the module walk
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    got = self._unit(stmt.value)
                    if (
                        ret_unit is not None
                        and got is not None
                        and got != ret_unit
                    ):
                        self._flag(
                            stmt.lineno,
                            f"'{fname}' returns {got} but its "
                            f"annotation/name implies {ret_unit}",
                        )
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._assign(stmt)
                continue
            for _field, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    self._unit(value)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.expr):
                            self._unit(item)
                    inner = [
                        v for v in value if isinstance(v, ast.stmt)
                    ]
                    if inner:
                        self._walk(inner, fname, ret_unit)

    def _assign(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        got = self._unit(value) if value is not None else None
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            declared = None
            if isinstance(stmt, ast.AnnAssign):
                declared = _annotation_unit(stmt.annotation)
            expected = declared or unit_for_name(target.id)
            if (
                expected is not None
                and got is not None
                and got != expected
            ):
                self._flag(
                    stmt.lineno,
                    f"assigns {got} to '{target.id}' which implies "
                    f"{expected}",
                )
            self.env[target.id] = expected or got or self.env.get(
                target.id, ""
            ) or ""
            if not self.env[target.id]:
                del self.env[target.id]

    # ---- expression units --------------------------------------------

    def _unit(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or unit_for_name(node.id)
        if isinstance(node, ast.Attribute):
            self._unit(node.value)
            return self.ctx.unit_of_attribute(node.attr)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._unit(node.operand)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            self._unit(node.test)
            a = self._unit(node.body)
            b = self._unit(node.orelse)
            return a if a == b else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._unit(child)
        return None

    def _binop(self, node: ast.BinOp) -> Optional[str]:
        left = self._unit(node.left)
        right = self._unit(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                left is not None
                and right is not None
                and left != right
                and (left in (SECONDS, BYTES, BANDWIDTH)
                     or right in (SECONDS, BYTES, BANDWIDTH))
            ):
                self._flag(
                    node.lineno,
                    f"adds {left} to {right}",
                )
                return None
            return left or right
        if isinstance(node.op, ast.Mult):
            return self._multiply(node, left, right)
        if isinstance(node.op, ast.Div):
            return _divide(left, right)
        return None

    def _multiply(
        self,
        node: ast.BinOp,
        left: Optional[str],
        right: Optional[str],
    ) -> Optional[str]:
        if left == SECONDS and right == SECONDS:
            self._flag(node.lineno, "multiplies two durations (s × s)")
            return None
        for scalar, other in ((left, right), (right, left)):
            if scalar in (RATIO, COUNT):
                return other
        if {left, right} == {BANDWIDTH, SECONDS}:
            return BYTES
        return None

    def _call(self, node: ast.Call) -> Optional[str]:
        for arg in node.args:
            self._unit(arg)
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            self._unit(node.func.value)
            name = node.func.attr
        self._check_keywords(node)
        if name == "len":
            return COUNT
        if name in ("abs", "ceil", "floor", "round"):
            return self._unit(node.args[0]) if node.args else None
        if name in ("min", "max"):
            units = {self._unit(a) for a in node.args}
            units.discard(None)
            return units.pop() if len(units) == 1 else None
        if name in self.ctx.returns:
            return self.ctx.returns[name]
        return None

    def _check_keywords(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg is None:
                self._unit(kw.value)
                continue
            got = self._unit(kw.value)
            expected = self.ctx.unit_of_attribute(kw.arg)
            if (
                expected is not None
                and got is not None
                and got != expected
            ):
                self._flag(
                    kw.value.lineno,
                    f"keyword '{kw.arg}' implies {expected} but the "
                    f"argument is {got}",
                )

    def _flag(self, line: int, detail: str) -> None:
        self.findings.append(
            Finding.at(
                CODE,
                f"dimensional inconsistency: {detail}",
                self.relpath,
                line,
                self.lines,
            )
        )


def _divide(left: Optional[str], right: Optional[str]) -> Optional[str]:
    if left is not None and left == right:
        return RATIO
    if right in (RATIO, COUNT):
        return left
    if left == BYTES and right == BANDWIDTH:
        return SECONDS
    if left == BYTES and right == SECONDS:
        return BANDWIDTH
    return None
