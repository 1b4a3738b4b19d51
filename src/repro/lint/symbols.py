"""The shared program representation: symbols, definitions, callees.

Everything the rules and the whole-program extractors (effects, perf)
need to know about one module *before* they compute their own facts
lives here, once: the import/symbol table, the index of function
definitions, and the helpers that read parameters and assignment
targets off the AST.  :class:`repro.lint.context.ModuleContext` builds
the table and the index lazily, at most once per module per scan.

Every name is resolved through the module's import table and local
definitions to a canonical fully qualified name ("time.time",
"repro.core.durable.atomic_write_json", "pkg.mod.Helper.method") that
rule vocabularies, sinks, and call-graph edges are keyed on.  An alias
therefore launders nothing::

    from time import time as ticks
    ticks()          # REP001: resolves to time.time

Soundness caveats (documented in DESIGN.md §13): resolution is static
and name-based.  Dynamic dispatch (a method call on a value of unknown
class), ``getattr``, ``importlib``, and monkey-patching are invisible —
calls that cannot be resolved become dangling edges that propagate
nothing.  The analysis over-approximates reads and under-approximates
dynamic calls; it is a linter, not a verifier.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "ModuleSymbols",
    "DefIndex",
    "FunctionNode",
    "module_name_for",
    "dotted",
    "param_names",
    "is_public",
    "resolve_callee",
    "target_names",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Surface-module spellings normalized to their canonical package name.
_MODULE_ALIASES = {"np": "numpy"}


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative POSIX path.

    ``src/repro/analysis/report.py`` → ``repro.analysis.report``; a
    leading ``src/`` component is dropped, ``__init__`` maps to the
    package itself.
    """
    posix = relpath.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[: -len(".py")]
    parts = [p for p in posix.split("/") if p and p != "."]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' for anything dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


@dataclasses.dataclass
class ModuleSymbols:
    """One module's name-resolution table.

    ``bindings`` maps a module-level local name to the canonical dotted
    name it denotes: imported modules, imported attributes, and functions
    or classes defined in this module.
    """

    module: str
    is_package: bool
    bindings: Dict[str, str] = dataclasses.field(default_factory=dict)

    @classmethod
    def collect(
        cls, tree: ast.Module, module: str, *, is_package: bool = False
    ) -> "ModuleSymbols":
        symbols = cls(module=module, is_package=is_package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = _MODULE_ALIASES.get(alias.name, alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.asname is None:
                        # ``import a.b`` binds ``a``; dotted uses spell
                        # the full path, so bind the root to itself.
                        symbols.bindings.setdefault(local, local)
                    else:
                        symbols.bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = symbols._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue  # star imports are a resolution caveat
                    local = alias.asname or alias.name
                    symbols.bindings[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbols.bindings.setdefault(
                    node.name, f"{module}.{node.name}" if module else node.name
                )
            elif isinstance(node, ast.ClassDef):
                symbols.bindings.setdefault(
                    node.name, f"{module}.{node.name}" if module else node.name
                )
        return symbols

    def _from_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute package a ``from X import`` pulls names out of."""
        if node.level == 0:
            mod = node.module or ""
            return _MODULE_ALIASES.get(mod, mod)
        parts = self.module.split(".") if self.module else []
        if not self.is_package:
            parts = parts[:-1]  # the module's own name is not a package
        drop = node.level - 1
        if drop > len(parts):
            return None  # relative import escaping the analyzed tree
        if drop:
            parts = parts[:-drop]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def resolve(self, name: str) -> str:
        """Canonical dotted name for a surface dotted name.

        The first segment is substituted through the binding table; the
        rest of the chain is kept.  Unknown names resolve to themselves,
        so external calls keep a stable (if surface-level) identity.
        """
        if not name:
            return ""
        head, _, rest = name.partition(".")
        target = self.bindings.get(head, _MODULE_ALIASES.get(head, head))
        resolved = f"{target}.{rest}" if rest else target
        return _normalize(resolved)


def _normalize(qualname: str) -> str:
    """Fold spelling variants of well-known stdlib names together."""
    # ``import datetime; datetime.now`` is not a real API but the intent
    # is unambiguous; canonicalize onto the class-method spelling.
    replacements: Tuple[Tuple[str, str], ...] = (
        ("datetime.now", "datetime.datetime.now"),
        ("datetime.utcnow", "datetime.datetime.utcnow"),
        ("datetime.today", "datetime.datetime.today"),
        ("date.today", "datetime.date.today"),
    )
    for surface, canonical in replacements:
        if qualname == surface:
            return canonical
    if qualname.startswith("datetime.datetime.datetime."):
        return qualname.replace(
            "datetime.datetime.datetime.", "datetime.datetime.", 1
        )
    return qualname


def param_names(node: FunctionNode) -> Tuple[str, ...]:
    """Every formal of a def, in signature order (``*args``/``**kw`` too)."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def is_public(qualname: str, module: str) -> bool:
    local = qualname[len(module) + 1 :] if module else qualname
    return not any(part.startswith("_") for part in local.split("."))


class DefIndex:
    """All function/method/class definitions of a module, in source order.

    A ``def`` nested in an ``if``/``with``/``for``/``while``/``try``/
    ``match`` block belongs to the enclosing scope, as Python binds it.
    """

    def __init__(self, tree: ast.Module, module: str) -> None:
        #: (qualname, def node, owning class name or None)
        self.definitions: List[
            Tuple[str, FunctionNode, Optional[str]]
        ] = []
        self.by_qualname: Dict[str, FunctionNode] = {}
        self.classes: List[Tuple[str, ast.ClassDef]] = []
        for stmt in tree.body:
            self._scan_node(stmt, prefix=module, cls=None)

    def _scan_node(
        self, node: ast.AST, prefix: str, cls: Optional[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            self.definitions.append((qual, node, cls))
            self.by_qualname[qual] = node
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=None)
        elif isinstance(node, ast.ClassDef):
            qual = f"{prefix}.{node.name}" if prefix else node.name
            self.classes.append((qual, node))
            for child in node.body:
                self._scan_node(child, prefix=qual, cls=node.name)
        else:  # a block statement: its defs belong to the enclosing scope
            for _field, value in ast.iter_fields(node):
                for item in value if isinstance(value, list) else ():
                    if isinstance(item, (ast.excepthandler, ast.match_case)):
                        item_body = item.body
                    else:
                        item_body = [item]
                    for child in item_body:
                        if isinstance(child, ast.stmt):
                            self._scan_node(child, prefix, cls)


def resolve_callee(
    func: ast.expr,
    symbols: ModuleSymbols,
    defs: DefIndex,
    cls: Optional[str],
) -> str:
    """Canonical callee of a call expression, '' when unresolvable.

    ``self.x``/``cls.x`` inside a method of class ``cls`` resolves to
    that class's own ``x`` only when the module defines it — inherited
    and dynamically attached callables are dangling edges.
    """
    name = dotted(func)
    if not name:
        return ""
    head, _, rest = name.partition(".")
    if head in ("self", "cls") and cls is not None and rest:
        candidate = (
            f"{symbols.module}.{cls}.{rest}"
            if symbols.module
            else f"{cls}.{rest}"
        )
        return candidate if candidate in defs.by_qualname else ""
    return symbols.resolve(name)


def target_names(target: ast.expr) -> List[str]:
    """Names an assignment target binds or, through a container, taints."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        # d[k] = tainted / obj.field = tainted: the mutation taints the
        # container itself, so a later write of `d` carries the taint.
        return target_names(target.value)
    return []
