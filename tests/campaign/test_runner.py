"""Tests for the crash-safe campaign runner, executing inline.

The fakes are instant and instrumented (see conftest), so crash/resume
behavior is asserted precisely: which entries re-ran, what the journal
holds, and that a resumed campaign's result artifacts are byte-identical
to an uninterrupted run's.  The behaviour this runner shares with the
process-pool one is in ``test_executor_contract.py``.
"""

import hashlib
import time

import pytest

from repro.campaign import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PROBLEMS,
    CampaignRunner,
)
from repro.errors import CampaignError

from tests.campaign.conftest import (
    FAKE_IDS,
    fake_registry,
    fake_result,
    make_manifest,
)


def run_campaign(tmp_path, subdir, *, crash_at=None, log=None, **kwargs):
    manifest = make_manifest()
    root = tmp_path / subdir
    runner = CampaignRunner(
        manifest,
        root / "journal.json",
        registry=fake_registry(FAKE_IDS, log=log, crash_at=crash_at),
        results_dir=root / "results",
        check_claims=False,
        handle_signals=False,
        **kwargs,
    )
    return runner


def results_digest(results_dir):
    """Map of result-file name -> sha256 of its bytes."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(results_dir.iterdir())
    }


class TestCleanRun:
    def test_all_entries_complete(self, tmp_path):
        log = []
        runner = run_campaign(tmp_path, "clean", log=log)
        report = runner.run()
        assert report.ok
        assert report.exit_code == EXIT_OK
        assert not report.interrupted
        assert [o.status for o in report.outcomes] == ["completed"] * 6
        assert log == FAKE_IDS
        assert sorted(report.results()) == sorted(FAKE_IDS)
        names = sorted(p.name for p in (tmp_path / "clean/results").iterdir())
        assert names == sorted(f"{i}.json" for i in FAKE_IDS)

    def test_resume_of_missing_journal_starts_fresh(self, tmp_path):
        report = run_campaign(tmp_path, "c").run(resume=True)
        assert report.ok

    def test_missing_outcome_lookup(self, tmp_path):
        report = run_campaign(tmp_path, "c").run()
        with pytest.raises(CampaignError, match="no outcome for 'fig99'"):
            report.outcome("fig99")


class TestCrashAndResume:
    @pytest.mark.parametrize("crash_at", [0, 2, 5])
    def test_resume_reruns_only_unsettled_entries(self, tmp_path, crash_at):
        # Uninterrupted reference run.
        ref = run_campaign(tmp_path, "ref")
        assert ref.run().ok
        ref_digest = results_digest(tmp_path / "ref/results")

        # Crashed run: the injected exception escapes the runner, like a
        # process dying mid-entry.  Settled entries are already durable.
        crash_log = []
        with pytest.raises(RuntimeError, match="injected crash"):
            run_campaign(tmp_path, "crashed", crash_at=crash_at,
                         log=crash_log).run()
        assert crash_log == FAKE_IDS[: crash_at + 1]

        # Resume re-runs only the crashed entry and everything after it.
        resume_log = []
        report = run_campaign(tmp_path, "crashed", log=resume_log).run(
            resume=True
        )
        assert resume_log == FAKE_IDS[crash_at:]
        assert report.ok
        statuses = [report.outcome(i).status for i in FAKE_IDS]
        assert statuses == ["resumed"] * crash_at + ["completed"] * (
            6 - crash_at
        )

        # The combined artifacts are byte-identical to the clean run's.
        assert results_digest(tmp_path / "crashed/results") == ref_digest

    def test_resume_against_changed_manifest_refused(self, tmp_path):
        run_campaign(tmp_path, "c").run()
        manifest = make_manifest(ids=FAKE_IDS[:3])
        runner = CampaignRunner(
            manifest,
            tmp_path / "c/journal.json",
            registry=fake_registry(FAKE_IDS[:3]),
            check_claims=False,
            handle_signals=False,
        )
        with pytest.raises(CampaignError, match="different manifest"):
            runner.run(resume=True)


class TestInterruption:
    def test_stop_mid_campaign_checkpoints_and_skips(self, tmp_path):
        manifest = make_manifest()
        runner = run_campaign(tmp_path, "c")

        # Trip the stop flag from inside the third entry, as a signal
        # handler would; the entry then lingers long enough for the
        # watchdog poll loop to abandon it.
        def stopping_fig04():
            runner._stop.set()
            time.sleep(5.0)
            return fake_result("fig04")

        runner.registry["fig04"] = stopping_fig04
        report = runner.run()
        assert report.interrupted
        assert report.exit_code == EXIT_INTERRUPTED
        statuses = [report.outcome(i).status for i in FAKE_IDS]
        # fig04's attempt was abandoned (not journaled) and everything
        # after it was skipped without running.
        assert statuses == ["completed", "completed", "skipped", "skipped",
                            "skipped", "skipped"]
        skipped = report.outcome("fig04")
        assert skipped.attempts == 0

        # Resume finishes the remaining entries.
        log = []
        resumed = run_campaign(tmp_path, "c", log=log).run(resume=True)
        assert resumed.ok
        assert log == FAKE_IDS[2:]
        assert [resumed.outcome(i).status for i in FAKE_IDS] == (
            ["resumed"] * 2 + ["completed"] * 4
        )


class TestClaimChecking:
    def test_violations_flagged_without_aborting(self, tmp_path):
        manifest = make_manifest(ids=["fig02"])
        runner = CampaignRunner(
            manifest,
            tmp_path / "journal.json",
            registry=fake_registry(["fig02"]),
            check_claims=True,
            handle_signals=False,
        )
        report = runner.run()
        outcome = report.outcome("fig02")
        # The fake result's errors don't satisfy fig02's recorded claims.
        assert outcome.status == "completed"
        assert outcome.violations
        assert not report.ok
        assert report.exit_code == EXIT_PROBLEMS
