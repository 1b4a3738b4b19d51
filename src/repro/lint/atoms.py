"""Atom-set dataflow: the effect extractor's walking machinery.

The effect extractor summarizes a function by walking its body and
reading facts off it.  Values are tracked as sets of **atoms** — plain
strings such as ``param:<name>`` (a formal parameter) and
``call:<qualname>`` (the return value of a callee), plus the layer's
own marks — so every summary is a JSON-ready dict, cacheable per module
by content hash.

The intra-function dataflow is flow-insensitive per variable and
iterates the statement walk twice, so atoms reach fixpoint through
loops and re-assignments; facts are only *recorded* on the second walk.
Instance attribute state (``self.x = ...``) and closures over enclosing
locals are not tracked — documented soundness caveats.

Here: the summary fields every call-graph consumer reads
(:class:`AtomSummary`), the per-module container (:class:`SummaryExtract`,
shared with the perf layer), the two-pass walker skeleton
(:class:`AtomWalker`), and the module-body-then-definitions driver
(:func:`extract_functions`).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
)

from repro.lint.context import ModuleContext
from repro.lint.symbols import (
    FunctionNode,
    is_public,
    param_names,
    resolve_callee,
    target_names,
)

__all__ = [
    "MODULE_BODY",
    "AtomSummary",
    "SummaryExtract",
    "AtomWalker",
    "extract_functions",
]

#: Name of the synthetic function that stands for a module's body.
MODULE_BODY = "<module>"

#: Calls, and surface attribute names, that mark a function as doing I/O.
_IO_CALLS = frozenset({"open", "os.replace", "os.rename", "os.fsync"})
_IO_ATTR_CALLS = frozenset({"write", "write_text", "write_bytes"})

ArgFlow = Tuple[
    str, int, Tuple[Tuple[str, ...], ...], Dict[str, Tuple[str, ...]]
]


@dataclasses.dataclass
class AtomSummary:
    """Identity, call edges, and atom flows of one function.

    ``calls`` are resolved call edges as (callee, line); ``sink_flows`` are
    durable-writer calls with the atoms of their arguments;
    ``arg_flows`` are arguments passed to resolvable callees with their
    atoms (how facts cross call edges); ``ret_atoms`` is what the return
    value depends on.
    """

    qualname: str
    lineno: int
    params: Tuple[str, ...]
    is_public: bool
    is_method: bool
    ret_atoms: List[str] = dataclasses.field(default_factory=list)
    calls: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    sink_flows: List[Tuple[str, int, Tuple[str, ...]]] = dataclasses.field(
        default_factory=list
    )
    arg_flows: List[ArgFlow] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": list(self.params),
            "is_public": self.is_public,
            "is_method": self.is_method,
            "ret_atoms": sorted(self.ret_atoms),
            "calls": [[c, ln] for c, ln in self.calls],
            "sink_flows": [
                [s, ln, sorted(atoms)] for s, ln, atoms in self.sink_flows
            ],
            "arg_flows": [
                [
                    callee,
                    ln,
                    [sorted(a) for a in pos],
                    {k: sorted(v) for k, v in sorted(kw.items())},
                ]
                for callee, ln, pos, kw in self.arg_flows
            ],
        }

    @staticmethod
    def shared_fields(data: Dict[str, Any]) -> Dict[str, Any]:
        """Constructor arguments for the fields above, from ``to_dict``."""
        return {
            "qualname": str(data["qualname"]),
            "lineno": int(data["lineno"]),
            "params": tuple(data["params"]),
            "is_public": bool(data["is_public"]),
            "is_method": bool(data["is_method"]),
            "ret_atoms": list(data["ret_atoms"]),
            "calls": [(str(c), int(ln)) for c, ln in data["calls"]],
            "sink_flows": [
                (str(s), int(ln), tuple(atoms))
                for s, ln, atoms in data["sink_flows"]
            ],
            "arg_flows": [
                (
                    str(callee),
                    int(ln),
                    tuple(tuple(a) for a in pos),
                    {str(k): tuple(v) for k, v in kw.items()},
                )
                for callee, ln, pos, kw in data["arg_flows"]
            ],
        }


X = TypeVar("X", bound="SummaryExtract")


@dataclasses.dataclass
class SummaryExtract:
    """Everything a propagation pass needs about one module."""

    #: the layer's summary class (``from_dict`` / ``to_dict``)
    summary_type: ClassVar[Any]

    relpath: str
    module: str
    functions: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relpath": self.relpath,
            "module": self.module,
            "functions": {
                name: fn.to_dict()
                for name, fn in sorted(self.functions.items())
            },
        }

    @classmethod
    def from_dict(cls: Type[X], data: Dict[str, Any]) -> X:
        return cls(
            relpath=str(data["relpath"]),
            module=str(data["module"]),
            functions={
                str(name): cls.summary_type.from_dict(fn)
                for name, fn in data["functions"].items()
            },
        )


class AtomWalker:
    """Two-pass flow-insensitive atom propagation over one body.

    A layer subclasses this with its ``summary_type``, an ``_atoms``
    evaluator for expressions, and a ``_stmt`` that handles the
    statements it reads facts off before deferring here for the rest.
    """

    summary_type: ClassVar[Any]

    def __init__(
        self,
        ctx: ModuleContext,
        qualname: str,
        node: Optional[FunctionNode],
        cls: Optional[str],
        allowlisted: bool,
        globals_env: Dict[str, Set[str]],
    ) -> None:
        # ``node`` is None for the module body, which is never public.
        self.summary = self.summary_type(
            qualname=qualname,
            lineno=node.lineno if node is not None else 1,
            params=param_names(node) if node is not None else (),
            is_public=node is not None and is_public(qualname, ctx.module),
            is_method=cls is not None,
        )
        self.symbols = ctx.symbols
        self.index = ctx.defs
        self.allowlisted = allowlisted
        self.globals_env = globals_env
        self.cls = cls
        self.env: Dict[str, Set[str]] = {}
        self._ret: Set[str] = set()
        self._collect = False

    def run(self, body: Sequence[ast.stmt]) -> Any:
        self._collect = False
        self._walk(body)
        self._collect = True
        self._walk(body)
        self.summary.ret_atoms = sorted(self._ret)
        return self.summary

    def _atoms(self, node: Optional[ast.AST]) -> Set[str]:
        raise NotImplementedError  # interface method; layers override

    # ---- statements --------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs are indexed and summarized separately
        if isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(
                stmt.target, self._iterated(self._atoms(stmt.iter))
            )
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self._atoms(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, atoms)
            self._walk(stmt.body)
            return
        # Generic fallback (If, While, Match, Expr, Assert, ...): evaluate
        # expression children, recurse into statement-list children.
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._atoms(value)
            elif isinstance(value, list):
                for expr in [v for v in value if isinstance(v, ast.expr)]:
                    self._atoms(expr)
                inner = [v for v in value if isinstance(v, ast.stmt)]
                if inner:
                    self._walk(inner)
                for v in value:
                    if hasattr(ast, "match_case") and isinstance(
                        v, ast.match_case
                    ):
                        self._walk(v.body)

    def _bind_target(self, target: ast.expr, atoms: Set[str]) -> None:
        """A loop, ``with``, or assignment binds ``atoms`` to ``target``."""
        for name in target_names(target):
            self.env.setdefault(name, set()).update(atoms)

    def _iterated(self, atoms: Set[str]) -> Set[str]:
        """Atoms of an element drawn from an ``atoms``-marked iterable."""
        return atoms

    # ---- expressions -------------------------------------------------

    def _name_atoms(self, node: ast.Name) -> Set[str]:
        result: Set[str] = set(self.env.get(node.id, ()))
        if node.id in self.summary.params:
            result.add(f"param:{node.id}")
        elif node.id not in self.env and node.id in self.globals_env:
            result |= self.globals_env[node.id]
        return result

    def _arg_atoms(
        self, node: ast.Call
    ) -> Tuple[List[Set[str]], Dict[str, Set[str]], Set[str]]:
        """Atoms of a call's arguments: positional, keyword, and union."""
        pos_atoms: List[Set[str]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                pos_atoms.append(self._atoms(arg.value))
            else:
                pos_atoms.append(self._atoms(arg))
        kw_atoms: Dict[str, Set[str]] = {}
        star_kw: Set[str] = set()
        for kw in node.keywords:
            if kw.arg is None:
                star_kw |= self._atoms(kw.value)
            else:
                kw_atoms[kw.arg] = self._atoms(kw.value)
        arg_union: Set[str] = set().union(*pos_atoms) if pos_atoms else set()
        for atoms in kw_atoms.values():
            arg_union |= atoms
        arg_union |= star_kw
        return pos_atoms, kw_atoms, arg_union

    def _resolve_callee(self, func: ast.expr) -> str:
        return resolve_callee(func, self.symbols, self.index, self.cls)

    def _is_io(self, callee: str, func: ast.expr) -> bool:
        if callee in _IO_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _IO_ATTR_CALLS:
            return True
        return False

    def _record_call(
        self,
        callee: str,
        lineno: int,
        pos_atoms: List[Set[str]],
        kw_atoms: Dict[str, Set[str]],
        arg_union: Set[str],
    ) -> None:
        """Record a resolved call edge and, if any argument carries
        atoms, the argument flow across it."""
        if not self._collect:
            return
        self.summary.calls.append((callee, lineno))
        if arg_union or any(pos_atoms) or any(kw_atoms.values()):
            self.summary.arg_flows.append(
                (
                    callee,
                    lineno,
                    tuple(tuple(sorted(a)) for a in pos_atoms),
                    {k: tuple(sorted(v)) for k, v in kw_atoms.items()},
                )
            )


def extract_functions(
    ctx: ModuleContext,
    walker: Callable[..., AtomWalker],
    allowlist: Sequence[str],
) -> Dict[str, Any]:
    """Summaries of the module body and every definition in ``ctx``.

    ``walker`` builds one :class:`AtomWalker` per unit; ``allowlisted``
    tells it the module's path ends with an ``allowlist`` suffix.
    """
    assert ctx.tree is not None
    module = ctx.module
    allowlisted = any(ctx.relpath.endswith(sfx) for sfx in allowlist)

    # Module body first: its global atoms seed every function walker.
    body_walker = walker(
        ctx,
        f"{module}.{MODULE_BODY}" if module else MODULE_BODY,
        None,
        None,
        allowlisted,
        {},
    )
    summary = body_walker.run(
        [
            s
            for s in ctx.tree.body
            if not isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
    )
    functions = {summary.qualname: summary}
    for qualname, node, cls in ctx.defs.definitions:
        functions[qualname] = walker(
            ctx, qualname, node, cls, allowlisted, body_walker.env
        ).run(node.body)
    return functions
