"""Command-line interface: the command table and ``main``.

A command lives beside the code it drives.  :data:`COMMANDS` is the one
table of ``(name, help line, owning module)``; the owner defines
``register_<name>(subparser)`` (``-`` spelled ``_``), which adds that
command's arguments and its ``func`` handler.  Deleting an owner module
removes exactly its commands.

A command imports only what it runs.  This module's top imports
``argparse``, ``importlib``, ``sys`` and :mod:`repro.errors`; an owner
is imported when its command's arguments are filled in, and
:func:`main` fills in those of the command named by ``argv[0]`` alone
(``repro --help`` and :func:`build_parser` with no argument fill in all
of them).  So ``repro lint`` starts without numpy, scipy or networkx,
and ``repro predict`` without the broker or the service.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["COMMANDS", "build_parser", "main"]

#: The command table: (name, help line, owning module).
COMMANDS: Tuple[Tuple[str, str, str], ...] = (
    ("list-workloads", "list available workloads", "repro.workloads.cli"),
    ("run", "execute a workload on the simulator", "repro.workloads.cli"),
    ("predict", "predict from a saved profile", "repro.workloads.cli"),
    (
        "classify",
        "auto-detect a workload's model classes",
        "repro.workloads.cli",
    ),
    ("figure", "reproduce one paper figure", "repro.workloads.cli"),
    (
        "suite",
        "run every experiment and check the paper's claims",
        "repro.workloads.cli",
    ),
    (
        "campaign",
        "run a campaign manifest with a durable, resumable journal",
        "repro.campaign.cli",
    ),
    (
        "broker",
        "broker a job stream over a grid with prediction-guided "
        "placement and online calibration",
        "repro.broker.cli",
    ),
    (
        "trace",
        "trace-realistic workloads: generate presets, import GWF "
        "files, broker saved traces (see DESIGN.md §16)",
        "repro.broker.cli",
    ),
    (
        "lint",
        "check the determinism/durability/error-model contracts "
        "(AST-based; see DESIGN.md §13)",
        "repro.lint.cli",
    ),
    (
        "shares",
        "component shares of a workload across configurations",
        "repro.workloads.cli",
    ),
    (
        "whatif",
        "configuration sweep + node recommendation from a profile",
        "repro.workloads.cli",
    ),
    (
        "serve",
        "prediction-as-a-service: seeded smoke run (default), "
        "chaos campaign (--chaos), or a real HTTP server (--port)",
        "repro.service.cli",
    ),
)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs).

    Every command's name and help line is always present; its arguments
    are filled in for ``only`` alone, or for all commands when ``None``.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Performance Prediction Framework for "
            "Grid-Based Data Mining Applications'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, owner in COMMANDS:
        command = sub.add_parser(name, help=help_line)
        if only is None or only == name:
            register = "register_" + name.replace("-", "_")
            getattr(import_module(owner), register)(command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``repro lint ...`` builds lint's arguments only; anything else in
    # first place (--help, a typo, nothing) gets the full parser.
    named = bool(argv) and argv[0] in [name for name, _, _ in COMMANDS]
    args = build_parser(only=argv[0] if named else None).parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
