"""Per-module context: one file, read once, shared by every lint pass.

A scan loads each module exactly once and hands the same context to
every enabled pass (the REP00x rules and the flow, effect, and perf
extractors).  Everything derived from the source text is computed on
first use and then kept for the passes that follow: the SHA-256 that
keys the summary caches, the parsed tree, the import/symbol table, and
the definition index.  A warm whole-program pass that hits its cache
never touches ``tree``, so it never pays for the parse.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import pathlib
from typing import Optional, Tuple

from repro.lint.symbols import DefIndex, ModuleSymbols, module_name_for

__all__ = ["ModuleContext", "relative_finding_path"]


def relative_finding_path(path: pathlib.Path, root: pathlib.Path) -> str:
    """The path form findings and baseline identities use: ``root``-relative
    with posix separators, falling back to the path as given when it lies
    outside ``root``."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.as_posix()
    return rel.as_posix()


class ModuleContext:
    """One module: path identity, source text, and lazily derived views.

    ``relpath`` is POSIX-style and relative to the lint root; it is the
    path that appears in findings, baselines, and rule allowlists, so it
    is stable across machines and checkouts.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        #: set when ``tree`` was asked for and the file does not parse
        self.syntax_error: Optional[SyntaxError] = None

    @classmethod
    def load(cls, path: pathlib.Path, root: pathlib.Path) -> "ModuleContext":
        """Read one file from disk, anchoring its identity on ``root``."""
        return cls(
            relative_finding_path(path, root),
            path.read_text(encoding="utf-8"),
        )

    @functools.cached_property
    def lines(self) -> Tuple[str, ...]:
        return tuple(self.source.splitlines())

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of the source text: the summary caches' key."""
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    @functools.cached_property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or ``None`` (see ``syntax_error``)."""
        try:
            return ast.parse(self.source, filename=self.relpath)
        except SyntaxError as exc:
            self.syntax_error = exc
            return None

    @functools.cached_property
    def module(self) -> str:
        """Dotted module name (``src/repro/a/b.py`` → ``repro.a.b``)."""
        return module_name_for(self.relpath)

    @functools.cached_property
    def symbols(self) -> ModuleSymbols:
        """Import/symbol table; only valid for a module that parses."""
        assert self.tree is not None
        return ModuleSymbols.collect(
            self.tree,
            self.module,
            is_package=self.relpath.endswith("__init__.py"),
        )

    @functools.cached_property
    def defs(self) -> DefIndex:
        """Definition index; only valid for a module that parses."""
        assert self.tree is not None
        return DefIndex(self.tree, self.module)

    def segment(self, node: ast.AST) -> Optional[str]:
        """The exact source text of ``node`` (None for synthetic nodes)."""
        return ast.get_source_segment(self.source, node)
