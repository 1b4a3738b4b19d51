"""Per-module effect extraction: serializable local effect summaries.

One parse per module produces, for every function (and the module body
as the synthetic ``<module>``), the *local* effect facts the bottom-up
propagation pass closes over the call graph:

- ``direct`` — effect kinds observed in the body itself (``ambient``,
  ``global-write``, ``param-mutation``, ``io``), with the first line
  and a short human detail for messages.
- ``global_writes`` / ``param_mutations`` — the individual write and
  mutation sites (name, line), for REP201/REP204 anchoring.
- ``returned_params`` / ``mutable_defaults`` — REP204's two local
  shapes: a bare ``return param`` after mutating it, and a mutable
  default argument.
- ``submits`` / ``closure_submits`` — callables handed across an
  executor boundary (REP202/REP205).  Executors are tracked as a value
  mark, so ``with ProcessPoolExecutor() as ex:`` and plain assignment
  both work.
- ``sink_flows`` / ``arg_flows`` / ``ret_atoms`` — order-sensitivity
  taint: ``setlike`` marks a set-typed value, ``unordered`` marks a
  value derived from *iterating* one; ``sorted()`` and friends launder
  both (REP203).
- ``calls`` — resolved call edges; shaped exactly like the flow
  layer's so :func:`repro.lint.callgraph.build_callgraph` works
  unchanged over effect extracts.

The walker is the two-pass flow-insensitive scheme of
:mod:`repro.lint.atoms`, shared with the flow extractor, with the same
soundness caveats: instance-attribute state and dynamic dispatch are
not tracked, and a method mutating ``self`` does not propagate to the
caller's receiver value.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.effects.ruledefs import (
    AMBIENT_ALLOWLIST,
    AMBIENT_CALLS,
    AMBIENT_KIND_BY_CALL,
    EFFECT_AMBIENT,
    EFFECT_GLOBAL_WRITE,
    EFFECT_IO,
    EFFECT_PARAM_MUTATION,
    EXECUTOR_SUBMIT_ATTRS,
    EXECUTOR_TYPES,
    MUTATOR_ATTRS,
    ORDER_SANITIZERS,
    SET_CONSTRUCTORS,
    SET_RETURNING_ATTRS,
    UNSEEDED_RNG_CONSTRUCTORS,
)
from repro.lint.atoms import (
    AtomSummary,
    AtomWalker,
    SummaryExtract,
    extract_functions,
)
from repro.lint.context import ModuleContext
from repro.lint.flow.ruledefs import DURABLE_SINKS
from repro.lint.symbols import FunctionNode, ModuleSymbols, dotted

__all__ = [
    "EffectSummary",
    "EffectExtract",
    "extract_effects",
    "ATOM_SETLIKE",
    "ATOM_UNORDERED",
]

#: Value marks carried in atom sets beside ``param:``/``call:`` atoms.
ATOM_SETLIKE = "setlike"  # the value is a set/frozenset
ATOM_UNORDERED = "unordered"  # derived from iterating an unordered value
ATOM_EXECUTOR = "executor"  # the value is a pool/executor instance

#: Calls that expose iteration order of their (first) argument.
_ITERATING_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "next", "zip"}
)

#: Default-argument expressions that denote fresh mutable state.
_MUTABLE_DEFAULT_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


@dataclasses.dataclass
class EffectSummary(AtomSummary):
    """Local (callee-independent) effect facts of one function."""

    #: direct effect kind -> first line observed
    direct: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: direct effect kind -> short human detail ("time.time", "CACHE")
    detail: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: (module-level name written, line)
    global_writes: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (formal parameter mutated, line)
    param_mutations: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: parameters returned bare (``return param``)
    returned_params: List[str] = dataclasses.field(default_factory=list)
    #: (parameter with a mutable default, line)
    mutable_defaults: List[Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: (display, line, captured enclosing names) — REP202 sites
    closure_submits: List[Tuple[str, int, Tuple[str, ...]]] = (
        dataclasses.field(default_factory=list)
    )
    #: (resolved qualname or '', line, display) — REP205 sites
    submits: List[Tuple[str, int, str]] = dataclasses.field(
        default_factory=list
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            **super().to_dict(),
            "direct": dict(self.direct),
            "detail": dict(self.detail),
            "global_writes": [[n, ln] for n, ln in self.global_writes],
            "param_mutations": [[n, ln] for n, ln in self.param_mutations],
            "returned_params": sorted(self.returned_params),
            "mutable_defaults": [[n, ln] for n, ln in self.mutable_defaults],
            "closure_submits": [
                [d, ln, list(captured)]
                for d, ln, captured in self.closure_submits
            ],
            "submits": [[q, ln, d] for q, ln, d in self.submits],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EffectSummary":
        return cls(
            **cls.shared_fields(data),
            direct={str(k): int(v) for k, v in data["direct"].items()},
            detail={str(k): str(v) for k, v in data["detail"].items()},
            global_writes=[
                (str(n), int(ln)) for n, ln in data["global_writes"]
            ],
            param_mutations=[
                (str(n), int(ln)) for n, ln in data["param_mutations"]
            ],
            returned_params=[str(n) for n in data["returned_params"]],
            mutable_defaults=[
                (str(n), int(ln)) for n, ln in data["mutable_defaults"]
            ],
            closure_submits=[
                (str(d), int(ln), tuple(str(c) for c in captured))
                for d, ln, captured in data["closure_submits"]
            ],
            submits=[
                (str(q), int(ln), str(d)) for q, ln, d in data["submits"]
            ],
        )


class EffectExtract(SummaryExtract):
    """Everything effect propagation needs about one module."""

    summary_type = EffectSummary
    functions: Dict[str, EffectSummary]


def extract_effects(ctx: ModuleContext) -> EffectExtract:
    """Extract every function's effect summary from one parsed module."""
    assert ctx.tree is not None
    walker = functools.partial(
        _EffectWalker, module_state=_module_level_names(ctx.tree)
    )
    return EffectExtract(
        relpath=ctx.relpath,
        module=ctx.module,
        functions=extract_functions(ctx, walker, AMBIENT_ALLOWLIST),
    )


def _module_level_names(tree: ast.Module) -> frozenset:
    """Names bound by assignment in the module body (shared state)."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names.update(_binding_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            names.update(_binding_names(stmt.target))
    return frozenset(names)


def _binding_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_binding_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return []


def _mutable_defaults(
    node: FunctionNode, symbols: ModuleSymbols
) -> List[Tuple[str, int]]:
    """(param, line) for every default that denotes fresh mutable state."""
    args = node.args
    found: List[Tuple[str, int]] = []
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    pairs = [
        (positional[offset + i].arg, default)
        for i, default in enumerate(args.defaults)
    ] + [
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    for param, default in pairs:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            found.append((param, default.lineno))
        elif isinstance(default, ast.Call):
            callee = symbols.resolve(dotted(default.func))
            if callee in _MUTABLE_DEFAULT_CALLS:
                found.append((param, default.lineno))
    return found


def _free_names(node: ast.AST) -> Set[str]:
    """Names a function/lambda loads without binding them itself."""
    bound: Set[str] = set()
    loaded: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        bound.update(a.arg for a in args.posonlyargs + args.args)
        bound.update(a.arg for a in args.kwonlyargs)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load):
                loaded.add(child.id)
            else:
                bound.add(child.id)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            bound.update(child.names)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
    return loaded - bound


class _EffectWalker(AtomWalker):
    """Atom propagation reading off writes, mutations, and submits."""

    summary_type = EffectSummary
    summary: EffectSummary

    def __init__(
        self,
        ctx: ModuleContext,
        qualname: str,
        node: Optional[FunctionNode],
        cls: Optional[str],
        allowlisted: bool,
        globals_env: Dict[str, Set[str]],
        *,
        module_state: frozenset,
    ) -> None:
        super().__init__(ctx, qualname, node, cls, allowlisted, globals_env)
        # In the module body itself, assignments are definitions.
        self.module_state = module_state if node is not None else frozenset()
        if node is not None:
            self.summary.mutable_defaults = _mutable_defaults(
                node, ctx.symbols
            )
        #: names truly *bound* in this scope (plain-Name assignment,
        #: loop/with/comprehension targets) — ``env`` also holds names
        #: that merely received container-mutation taint, which must
        #: not shadow the module-global check.
        self._locals: Set[str] = set()
        self._declared_globals: Set[str] = set()

    def run(self, body: Sequence[ast.stmt]) -> EffectSummary:
        super().run(body)
        self.summary.ret_atoms = [
            a for a in self.summary.ret_atoms if a != ATOM_EXECUTOR
        ]
        return self.summary

    # ---- effect recording --------------------------------------------

    def _record(self, kind: str, line: int, detail: str) -> None:
        if not self._collect:
            return
        self.summary.direct.setdefault(kind, line)
        self.summary.detail.setdefault(kind, detail)

    def _global_write(self, name: str, line: int) -> None:
        if not self._collect:
            return
        self._record(EFFECT_GLOBAL_WRITE, line, name)
        self.summary.global_writes.append((name, line))

    def _param_mutation(self, name: str, line: int) -> None:
        if not self._collect:
            return
        self._record(EFFECT_PARAM_MUTATION, line, name)
        self.summary.param_mutations.append((name, line))

    def _is_local(self, name: str) -> bool:
        return name in self._locals or name in self.summary.params

    def _classify_write(self, base: Optional[str], line: int) -> None:
        """Mutation through ``base[...]``/``base.attr`` — whose state?"""
        if base is None:
            return
        if base in self.summary.params:
            self._param_mutation(base, line)
        elif base in self._declared_globals or (
            base not in self._locals and base in self.module_state
        ):
            self._global_write(base, line)

    # ---- statements --------------------------------------------------

    def _bind_target(self, target: ast.expr, atoms: Set[str]) -> None:
        self._locals.update(_binding_names(target))
        super()._bind_target(target, atoms)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Global):
            self._declared_globals.update(stmt.names)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            atoms = self._atoms(value) if value is not None else set()
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in self._declared_globals:
                        self._global_write(target.id, stmt.lineno)
                    elif isinstance(stmt, ast.AugAssign) and (
                        target.id in self.summary.params
                    ):
                        # ``param += [...]`` mutates list-like arguments
                        self._param_mutation(target.id, stmt.lineno)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._classify_write(
                        _base_name(target), stmt.lineno
                    )
                self._bind_target(target, atoms)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._classify_write(_base_name(target), stmt.lineno)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._ret |= self._atoms(stmt.value)
                if self._collect and isinstance(stmt.value, ast.Name):
                    # self/cls are exempt: ``return self`` after mutating
                    # it is the fluent-builder idiom, not an alias leak.
                    if (
                        stmt.value.id in self.summary.params
                        and stmt.value.id not in ("self", "cls")
                        and stmt.value.id not in self.summary.returned_params
                    ):
                        self.summary.returned_params.append(stmt.value.id)
            return
        super()._stmt(stmt)  # loops, with, try, and the generic rest

    # ---- expressions -------------------------------------------------

    def _atoms(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Name):
            return self._name_atoms(node)
        if isinstance(node, ast.Attribute):
            resolved = self.symbols.resolve(dotted(node))
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                self._ambient("env", node.lineno, "os.environ")
            return self._atoms(node.value)
        if isinstance(node, (ast.Set, ast.SetComp)):
            if isinstance(node, ast.SetComp):
                self._comprehension(node.generators)
            return {ATOM_SETLIKE}
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_atoms(node)
        if isinstance(node, ast.Lambda):
            return self._atoms(node.body)
        result: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                result |= self._atoms(child)
        return result

    def _comprehension(self, generators: Sequence[ast.comprehension]) -> Set[str]:
        """Bind comprehension targets; return the union of iter marks."""
        marks: Set[str] = set()
        for gen in generators:
            it = self._atoms(gen.iter)
            self._bind_target(gen.target, self._iterated(it))
            for cond in gen.ifs:
                self._atoms(cond)
            marks |= it
        return marks

    def _comprehension_atoms(self, node: ast.AST) -> Set[str]:
        assert isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp))
        iter_marks = self._comprehension(node.generators)
        if isinstance(node, ast.DictComp):
            body = self._atoms(node.key) | self._atoms(node.value)
        else:
            body = self._atoms(node.elt)
        result = body | (iter_marks - {ATOM_SETLIKE})
        if ATOM_SETLIKE in iter_marks:
            result.add(ATOM_UNORDERED)
        return result

    def _iterated(self, atoms: Set[str]) -> Set[str]:
        if ATOM_SETLIKE in atoms:
            return (atoms - {ATOM_SETLIKE}) | {ATOM_UNORDERED}
        return set(atoms)

    def _ambient(self, kind: str, lineno: int, detail: str) -> None:
        if self.allowlisted:
            return
        self._record(EFFECT_AMBIENT, lineno, f"{detail} ({kind})")

    def _call_atoms(self, node: ast.Call) -> Set[str]:
        pos_atoms, kw_atoms, arg_union = self._arg_atoms(node)
        callee = self._resolve_callee(node.func)
        recv_atoms: Set[str] = set()
        if isinstance(node.func, ast.Attribute):
            recv_atoms = self._atoms(node.func.value)
        elif not isinstance(node.func, ast.Name):
            recv_atoms = self._atoms(node.func)

        # Executor boundary: ``pool.submit(fn, ...)`` / ``pool.map(fn, xs)``
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in EXECUTOR_SUBMIT_ATTRS
            and ATOM_EXECUTOR in recv_atoms
            and node.args
        ):
            self._submitted(node.args[0], node.lineno)

        # Receiver mutation: ``x.append(v)`` on a param or module global.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_ATTRS
        ):
            self._classify_write(_base_name(node.func.value), node.lineno)

        # Ambient nondeterminism reads.
        if callee in AMBIENT_CALLS:
            self._ambient(
                AMBIENT_KIND_BY_CALL[callee], node.lineno, callee
            )
        elif callee == "os.getenv" or callee.startswith("os.environ."):
            self._ambient("env", node.lineno, callee)
        elif callee in UNSEEDED_RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._ambient("rng", node.lineno, f"{callee}()")

        # I/O and durable sinks.
        if self._is_io(callee, node.func):
            self._record(EFFECT_IO, node.lineno, callee or node.func.attr)
        if callee in DURABLE_SINKS:
            self._record(EFFECT_IO, node.lineno, callee)
            if self._collect:
                self.summary.sink_flows.append(
                    (
                        callee,
                        node.lineno,
                        tuple(sorted(arg_union - {ATOM_EXECUTOR})),
                    )
                )
            return arg_union | recv_atoms

        # Value-mark algebra.
        if callee in EXECUTOR_TYPES:
            return {ATOM_EXECUTOR}
        if callee in SET_CONSTRUCTORS:
            return (arg_union - {ATOM_UNORDERED, ATOM_SETLIKE}) | {
                ATOM_SETLIKE
            }
        if callee in ORDER_SANITIZERS:
            return arg_union - {ATOM_UNORDERED, ATOM_SETLIKE}
        if callee in _ITERATING_CALLS:
            if ATOM_SETLIKE in arg_union:
                return (arg_union - {ATOM_SETLIKE}) | {ATOM_UNORDERED}
            return arg_union | recv_atoms
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "join" and ATOM_SETLIKE in arg_union:
                return (
                    (arg_union - {ATOM_SETLIKE})
                    | recv_atoms
                    | {ATOM_UNORDERED}
                )
            if ATOM_SETLIKE in recv_atoms:
                if attr in SET_RETURNING_ATTRS:
                    return arg_union | {ATOM_SETLIKE}
                if attr == "pop":
                    return {ATOM_UNORDERED}

        result = arg_union | recv_atoms
        if callee:
            result.add(f"call:{callee}")
            self._record_call(
                callee, node.lineno, pos_atoms, kw_atoms, arg_union
            )
        return result

    # ---- executor submissions ----------------------------------------

    def _submitted(self, arg: ast.expr, line: int) -> None:
        """Classify the callable handed across an executor boundary."""
        if not self._collect:
            return
        if isinstance(arg, ast.Lambda):
            captured = sorted(
                name
                for name in _free_names(arg)
                if self._is_local(name)
            )
            if captured:
                self.summary.closure_submits.append(
                    ("lambda", line, tuple(captured))
                )
            else:
                self.summary.submits.append(("", line, "lambda"))
            return
        if isinstance(arg, ast.Call):
            inner = self.symbols.resolve(dotted(arg.func))
            if inner == "functools.partial" and arg.args:
                self._submitted(arg.args[0], line)
                return
            self.summary.submits.append(("", line, dotted(arg.func) or "<call>"))
            return
        if isinstance(arg, ast.Name):
            nested = f"{self.summary.qualname}.{arg.id}"
            nested_node = self.index.by_qualname.get(nested)
            if nested_node is not None:
                captured = sorted(
                    name
                    for name in _free_names(nested_node)
                    if self._is_local(name)
                )
                if captured:
                    self.summary.closure_submits.append(
                        (arg.id, line, tuple(captured))
                    )
                else:
                    self.summary.submits.append((nested, line, arg.id))
                return
        resolved = self._resolve_callee(arg)
        self.summary.submits.append(
            (resolved, line, dotted(arg) or "<dynamic>")
        )


def _base_name(expr: ast.expr) -> Optional[str]:
    """The innermost Name of a Subscript/Attribute chain, if any."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
