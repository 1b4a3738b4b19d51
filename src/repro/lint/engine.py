"""The scan loop and the AST-visitor rule engine that rides on it.

:func:`scan` is the only place lint reads source files: it loads each
module once into a :class:`~repro.lint.context.ModuleContext` and hands
it to every enabled :class:`Pass` — the REP00x rules here, the flow,
effect, and perf extractors in their packages — before moving to the
next file.

The rules pass builds a node-type → interested-rules dispatch table and
hands every node of :func:`ast.walk` to exactly the rules that declared
that node type.  Adding a rule therefore never adds another tree
traversal, and a rule never sees nodes it did not ask for.

Files that fail to parse are reported as findings under the synthetic
code ``REP000`` rather than aborting the run: a syntax error in one file
must not hide contract violations in the other two hundred.

Handed a cache path, the rules pass keeps each module's findings in a
:class:`~repro.lint.summaries.SummaryCache` keyed by source digest, so a
warm run parses nothing.  That cache's ``analysis_version`` is
:func:`linter_digest` — derived from the linter's own source, never
bumped by hand — so editing a rule cannot replay stale findings.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Type

from repro.lint.context import ModuleContext, relative_finding_path
from repro.lint.errors import LintError
from repro.lint.findings import CachedFindings, Finding
from repro.lint.registry import Rule, all_rules

__all__ = [
    "PARSE_ERROR_CODE",
    "Pass",
    "RulesPass",
    "linter_digest",
    "scan",
    "iter_python_files",
    "relative_finding_path",
    "lint_module",
    "lint_source",
    "lint_file",
    "lint_paths",
]

PARSE_ERROR_CODE = "REP000"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(
    paths: Sequence[pathlib.Path],
) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen = set()
    out: List[pathlib.Path] = []
    for path in paths:
        if not path.exists():
            raise LintError(f"no such file or directory: '{path}'")
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                out.append(candidate)
    return out


def _dispatch_table(
    rules: Sequence[Rule],
) -> Dict[Type[ast.AST], List[Rule]]:
    table: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            table.setdefault(node_type, []).append(rule)
    return table


class Pass:
    """One consumer of a scan: sees every module once, then ``finish()``es
    into its findings.

    ``visit`` must not keep the :class:`ModuleContext` (or its tree)
    beyond the call — the scan streams, so at most one parsed module is
    alive at a time.
    """

    def visit(self, module: ModuleContext) -> None:
        raise NotImplementedError  # interface method; passes override


def scan(
    paths: Sequence[str | pathlib.Path],
    root: Optional[str | pathlib.Path],
    passes: Sequence[Pass],
) -> int:
    """The one module-loading loop: each file is read once and handed to
    every pass before the next file is touched.  Returns the file count.

    ``root`` anchors the relative paths used in findings and baselines;
    it defaults to the current working directory (the repo root in CI
    and in the test suite).
    """
    rootpath = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
    files = iter_python_files([pathlib.Path(p) for p in paths])
    for path in files:
        module = ModuleContext.load(path, rootpath)
        for each in passes:
            each.visit(module)
    return len(files)


def linter_digest() -> str:
    """SHA-256 over the interpreter's minor version and every source file
    of this package: whatever a cached finding's presence, text, or
    position can depend on besides the linted module itself."""
    digest = hashlib.sha256(repr(sys.version_info[:2]).encode())
    package = pathlib.Path(__file__).parent
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class RulesPass(Pass):
    """The REP00x node-dispatch rules as a scan pass.

    With a ``cache_path``, a module that is not in the cache is linted
    with *every* registered rule and all its findings are stored; the
    pass then reports the ones ``rules`` selects (plus ``REP000``), so
    ``--select`` runs and full runs fill and read the same entries.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        cache_path: Optional[str | pathlib.Path] = None,
    ) -> None:
        # summaries imports this module (Pass, scan), hence not at the top
        from repro.lint.summaries import SummaryCache

        self.rules = list(rules) if rules is not None else all_rules()
        self.reported = {rule.code for rule in self.rules} | {PARSE_ERROR_CODE}
        self.cache: Optional[SummaryCache[CachedFindings]] = None
        if cache_path is not None:
            self.cache = SummaryCache(
                pathlib.Path(cache_path),
                "rules",
                linter_digest(),
                CachedFindings.from_dict,
            )
        self.findings: List[Finding] = []

    def visit(self, module: ModuleContext) -> None:
        if self.cache is None:
            self.findings.extend(lint_module(module, self.rules))
            return
        entry = self.cache.get(module.relpath, module.digest)
        if entry is None:
            entry = CachedFindings(lint_module(module))
            self.cache.put(module.relpath, module.digest, entry)
        for finding in entry.findings:
            if finding.code == PARSE_ERROR_CODE:
                # A cached verdict: the passes after this one in the
                # scan must not pay for the failing parse again.
                module.tree = None
            if finding.code in self.reported:
                self.findings.append(finding)

    def finish(self) -> List[Finding]:
        if self.cache is not None:
            self.cache.save()
        self.findings.sort(key=Finding.sort_key)
        return self.findings


def lint_module(
    ctx: ModuleContext, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run ``rules`` (default: all) over one loaded module; a module that
    does not parse is one REP000 finding."""
    if rules is None:
        rules = all_rules()
    if ctx.tree is None:
        exc = ctx.syntax_error
        assert exc is not None
        return [
            Finding(
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
                path=ctx.relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                snippet=(exc.text or "").strip(),
            )
        ]
    applicable = [r for r in rules if r.applies_to(ctx.relpath)]
    if not applicable:
        return []
    table = _dispatch_table(applicable)
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        for rule in table.get(type(node), ()):
            findings.extend(rule.visit(node, ctx))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module given as text; the unit the fixture tests use."""
    return lint_module(ModuleContext(relpath, source), rules)


def lint_file(
    path: pathlib.Path,
    root: pathlib.Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file on disk, reporting paths relative to ``root``."""
    return lint_module(ModuleContext.load(path, root), rules)


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    root: Optional[str | pathlib.Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint files and directories; the programmatic entry point."""
    rules_pass = RulesPass(rules)
    scan(paths, root, [rules_pass])
    return rules_pass.finish()
