"""The ``repro campaign`` command: run a manifest on the campaign engine.

:data:`repro.cli.COMMANDS` names this module as the command's owner and
calls :func:`register_campaign` to fill in its arguments and handler.
Exit codes are :class:`~repro.campaign.report.CampaignReport`'s (75 =
interrupted, resumable).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.analysis import format_campaign
from repro.campaign.manifest import load_manifest
from repro.campaign.runner import CampaignRunner
from repro.faults import WATCHDOG_RETRY_POLICY

__all__ = ["register_campaign"]


def _cmd_campaign(args) -> int:
    manifest = load_manifest(args.manifest)
    journal = args.journal or f"{args.manifest}.journal.json"
    policy = None
    if args.max_attempts is not None:
        policy = replace(WATCHDOG_RETRY_POLICY, max_attempts=args.max_attempts)
    kwargs = dict(
        retry_policy=policy, results_dir=args.results_dir, progress=print
    )
    if args.workers is None or args.workers == 1:
        runner = CampaignRunner(manifest, journal, **kwargs)
    else:
        from repro.campaign.parallel import ParallelCampaignRunner

        # Validates the count (a non-positive one is a CampaignError).
        runner = ParallelCampaignRunner(
            manifest, journal, workers=args.workers, **kwargs
        )
    report = runner.run(resume=args.resume)
    print()
    print(format_campaign(report))
    return report.exit_code


def register_campaign(p: argparse.ArgumentParser) -> None:
    p.add_argument("manifest", help="path to a campaign manifest JSON")
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal path (default: MANIFEST.journal.json)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run from its journal",
    )
    p.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="also save each entry's result JSON under DIR",
    )
    p.add_argument(
        "--max-attempts", type=int, default=None,
        help="watchdog attempts per entry before classifying it "
        "timed-out (default: 2, immediate retry)",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run entries on N worker processes (journals and "
        "artifacts stay byte-identical to a serial run)",
    )
    p.set_defaults(func=_cmd_campaign)
