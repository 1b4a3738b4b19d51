"""The ``repro lint`` command (also runnable as ``python -m repro.lint``).

Importable — and runnable, every layer included — without numpy, scipy
or networkx, so the CI lint job stays light: this module and everything
it pulls in (engine, rules, layers, baseline, reporters) is stdlib +
:mod:`repro.errors` + :mod:`repro.core.durable` + :mod:`repro.hotpath`
only, and no package ``__init__`` on the way imports anything
(``tests/lint/test_cli.py`` runs the gate with the numeric stack
blocked).

Exit codes: 0 — clean modulo baseline; 1 — new findings (or a
:class:`ReproError` surfaced by the top-level CLI); 2 — usage error from
argparse.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.hotpath import paused_collector
from repro.lint.baseline import Baseline
from repro.lint.effects import EFFECT_RULES, EffectPass, write_certificate
from repro.lint.engine import RulesPass, scan
from repro.lint.errors import LintError
from repro.lint.findings import CachedFindings, Finding
from repro.lint.fixes import apply_fixes
from repro.lint.flow import FLOW_RULES, FlowPass
from repro.lint.perf import PERF_RULES, PerfPass
from repro.lint.registry import RULES, ProgramRule, Rule, all_rules
from repro.lint.reporters import REPORT_FORMATS, LintReport, render
from repro.lint.summaries import LayerResult, SummaryCache, SummaryPass

__all__ = ["register_lint", "run_lint_command", "main"]

DEFAULT_PATHS = ("src/repro",)
DEFAULT_RULES_CACHE = ".repro-rules-cache.json"
DEFAULT_FLOW_CACHE = ".repro-flow-cache.json"
DEFAULT_EFFECTS_CACHE = ".repro-effects-cache.json"
DEFAULT_CERTIFICATE = ".repro-effects.json"
DEFAULT_PERF_CACHE = ".repro-perf-cache.json"


def register_lint(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags and handler to a parser (``repro lint``'s
    subparser, filled from :data:`repro.cli.COMMANDS`, or :func:`main`'s)."""
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS), metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=sorted(REPORT_FORMATS), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of suppressed-but-tracked findings",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite --baseline FILE from the current findings and exit 0",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply mechanical fixes (REP003 sort_keys=True) in place",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all); e.g. "
        "REP003,REP004 for harness code where only the writer "
        "contracts apply; flow codes (REP101-REP104) force the "
        "whole-program pass on",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory finding paths are relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (code, name, summary) and exit",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="run the whole-program pass (REP101-REP104); it runs "
        "anyway when a PATH is a directory and no --select is given",
    )
    parser.add_argument(
        "--effects", action="store_true",
        help="run the effect/determinism pass (REP203-REP205)",
    )
    parser.add_argument(
        "--certificate", default=None, metavar="FILE",
        help="determinism certificate the effect pass checks tiers "
        f"against (default: ROOT/{DEFAULT_CERTIFICATE})",
    )
    parser.add_argument(
        "--write-certificate", action="store_true",
        help="rewrite the determinism certificate from the current "
        "effect analysis and exit 0 (refuses tier demotions)",
    )
    parser.add_argument(
        "--allow-demotions", action="store_true",
        help="let --write-certificate record tier demotions after "
        "review",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="run the performance-contract pass (REP301-REP304)",
    )
    parser.set_defaults(func=_cmd_lint)


@dataclasses.dataclass(frozen=True)
class _Layer:
    """One whole-program layer as the CLI sees it.

    ``name`` is the flag stem: ``--NAME`` turns the layer on.  Its
    summary cache is always ``ROOT/<cache_name>``.
    """

    name: str
    rules: Tuple[ProgramRule, ...]
    cache_name: str
    #: (cache path, certificate path or None, the rules pass's
    #: findings cache) -> the pass
    make_pass: Callable[
        [str, Optional[str], Optional[SummaryCache[CachedFindings]]],
        SummaryPass,
    ]

    @property
    def codes(self) -> FrozenSet[str]:
        return frozenset(rule.code for rule in self.rules)

    def enabled(
        self,
        args: argparse.Namespace,
        paths: Sequence[str],
        selected: Optional[FrozenSet[str]],
    ) -> bool:
        """Whether this run includes the layer.

        Its flag turns it on, as --write-certificate turns effects on;
        otherwise an explicit --select decides by whether it names any
        of the layer's codes.  Without one, flow runs when a PATH is a
        directory (a single-file run stays intraprocedural), while
        effects and perf run only when asked for.
        """
        if getattr(args, self.name):
            return True
        if self.name == "effects" and args.write_certificate:
            return True
        if selected is not None:
            return bool(selected & self.codes)
        return self.name == "flow" and any(
            pathlib.Path(p).is_dir() for p in paths
        )


LAYERS: Tuple[_Layer, ...] = (
    _Layer(
        "flow", FLOW_RULES, DEFAULT_FLOW_CACHE,
        lambda cache, certificate, found: FlowPass(cache, found),
    ),
    _Layer(
        "effects", EFFECT_RULES, DEFAULT_EFFECTS_CACHE,
        lambda cache, certificate, found: EffectPass(cache, certificate),
    ),
    _Layer(
        "perf", PERF_RULES, DEFAULT_PERF_CACHE,
        lambda cache, certificate, found: PerfPass(cache, certificate),
    ),
)


@paused_collector()
def run_lint_command(args: argparse.Namespace) -> int:
    """Execute one lint run from parsed arguments.

    The run decodes caches, parses and walks every module and builds
    call graphs: a live set of acyclic objects that reference counting
    frees and that automatic collection would only re-scan, so the
    whole run, report included, keeps the collector paused.
    """
    if args.list_rules:
        print(_rule_table())
        return 0
    root = pathlib.Path(args.root) if args.root else pathlib.Path.cwd()
    rules, selected = _selected_rules(args.select)
    layers = [
        layer for layer in LAYERS if layer.enabled(args, args.paths, selected)
    ]
    certificate = args.certificate or str(root / DEFAULT_CERTIFICATE)

    def scan_once() -> Tuple[List[Finding], int, List[SummaryPass]]:
        """Every enabled pass over PATH, in one scan."""
        rules_pass = RulesPass(rules, root / DEFAULT_RULES_CACHE)
        layer_passes = [
            layer.make_pass(
                str(root / layer.cache_name),
                # A certificate about to be rewritten judges nothing.
                None if args.write_certificate else certificate,
                rules_pass.cache,
            )
            for layer in layers
        ]
        files_scanned = scan(args.paths, root, [rules_pass, *layer_passes])
        return rules_pass.finish(), files_scanned, layer_passes

    findings, files_scanned, layer_passes = scan_once()
    fixed = 0
    if args.fix:
        fixed = sum(apply_fixes(findings, root).values())
        if fixed:
            # Every pass was handed the pre-fix text: scan again.
            findings, files_scanned, layer_passes = scan_once()
    for layer, layer_pass in zip(layers, layer_passes):
        result = layer_pass.finish()
        if layer.name == "effects" and args.write_certificate:
            return _write_certificate(
                certificate, result, args.allow_demotions
            )
        findings = sorted(
            findings
            + [
                f
                for f in result.findings
                if selected is None or f.code in selected
            ],
            key=Finding.sort_key,
        )
    if args.write_baseline:
        if not args.baseline:
            raise ReproError("--write-baseline requires --baseline FILE")
        path = Baseline.from_findings(findings).save(args.baseline)
        print(
            f"baseline written to {path} "
            f"({len(findings)} finding(s) recorded)"
        )
        return 0
    baseline = (
        Baseline.load(args.baseline) if args.baseline else Baseline.empty()
    )
    report = LintReport(
        partition=baseline.partition(findings),
        files_scanned=files_scanned,
        fixed=fixed,
    )
    output = render(report, args.format)
    if output:
        print(output)
    return report.exit_code


def _write_certificate(
    certificate_path: str, result: LayerResult, allow_demotions: bool
) -> int:
    write_certificate(
        certificate_path,
        result.analysis,
        result.module_digests,
        allow_demotions=allow_demotions,
    )
    certified = sum(
        1 for tier in result.analysis.tiers.values() if tier != "effectful"
    )
    print(
        f"determinism certificate written to {certificate_path} "
        f"({certified} certified function(s))"
    )
    return 0


def _selected_rules(
    select: Optional[str],
) -> Tuple[Optional[List[Rule]], Optional[FrozenSet[str]]]:
    """Split a --select list into engine rules and the selected codes.

    Returns ``(engine_rules, codes)``, both ``None`` when no --select
    was given (meaning: everything); a list that names no code is a
    usage error.
    """
    if select is None:
        return None, None
    codes = [c.strip().upper() for c in select.split(",") if c.strip()]
    if not codes:
        # Zero rules would pass any tree: a gate that checks nothing.
        raise LintError(f"--select {select!r} names no rule code")
    all_instances = {rule.code: rule for rule in all_rules()}
    layer_codes = [code for layer in LAYERS for code in sorted(layer.codes)]
    unknown = [
        c for c in codes if c not in all_instances and c not in layer_codes
    ]
    if unknown:
        raise LintError(
            f"unknown rule code(s) {', '.join(unknown)} in --select "
            f"(registered: {', '.join(sorted(RULES) + layer_codes)})"
        )
    engine_rules = [all_instances[c] for c in codes if c in all_instances]
    return engine_rules, frozenset(codes)


def _rule_table() -> str:
    lines: List[str] = []
    for rule in all_rules():
        fixable = " (autofix)" if rule.fixable else ""
        lines.append(f"{rule.code}  {rule.name}{fixable}")
        lines.append(f"        {rule.summary}")
        lines.append(f"        why: {rule.rationale}")
        if rule.allowlist:
            lines.append(
                "        allowlist: " + ", ".join(rule.allowlist)
            )
        if rule.scope:
            lines.append(
                "        scope: modules matching "
                + ", ".join(rule.scope)
            )
    for layer in LAYERS:
        for rule in layer.rules:
            lines.append(f"{rule.code}  {rule.name} ({layer.name})")
            lines.append(f"        {rule.summary}")
            lines.append(f"        why: {rule.rationale}")
    return "\n".join(lines)


def _cmd_lint(args: argparse.Namespace) -> int:
    # The lint exit-code contract is 0 clean / 1 findings / 2 usage or
    # internal error; letting a LintError bubble to ``repro``'s
    # top-level handler would fold "the tool could not run" into "the
    # tool found problems" (1).
    try:
        return run_lint_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based contract checker for the repro framework's "
            "determinism, durability, and error-model invariants"
        ),
    )
    register_lint(parser)
    args = parser.parse_args(argv)
    return args.func(args)
