"""Tests for the crash-safe campaign runner, executing inline.

The fakes are instant and instrumented (see conftest), so crash/resume
behavior is asserted precisely: which entries re-ran, what the journal
holds, and that a resumed campaign's result artifacts are byte-identical
to an uninterrupted run's.  The executor contract (timeouts, retries,
resume, a driver's exception) is in ``test_executor_contract.py``.
"""

import hashlib
import sys
import threading
import time

import pytest

from repro.analysis import save_result
from repro.campaign import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PROBLEMS,
    CampaignEntry,
    CampaignManifest,
    CampaignRunner,
)
from repro.campaign import runner as runner_module
from repro.errors import CampaignError
from repro.faults import RetryPolicy
from repro.workloads.experiments import run_experiment, run_fault_scenario
from repro.workloads.registry import WorkloadSpec

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


class TestOneBookPerRun:
    """Inline entries share the run's datasets and kernel traces; an
    attempt the watchdog abandoned keeps its book to itself."""

    def test_defect_campaign_records_its_dataset_once(
        self, tmp_path, kernel_calls, monkeypatch
    ):
        """Three entries over defect 130 MB (32 chunks, one pass): one
        dataset and 32 kernel calls, where a book per entry makes three
        and 96.  The fault scenario, run on the shared book, saves the
        bytes a standalone ``run_fault_scenario`` saves."""
        built = []
        make_dataset = WorkloadSpec.make_dataset

        def counted(spec, size_label=None):
            built.append((spec.name, size_label))
            return make_dataset(spec, size_label)

        monkeypatch.setattr(WorkloadSpec, "make_dataset", counted)
        scenario = {
            "seed": 3,
            "faults": [{"type": "chunk-read-error", "rate": 0.05}],
        }
        manifest = CampaignManifest(
            name="defect-three",
            entries=(
                CampaignEntry("fig04", fast=True),
                CampaignEntry("fig09", fast=True),
                CampaignEntry(
                    "defect-faults",
                    kind="fault-scenario",
                    workload="defect",
                    fast=True,
                    scenario=scenario,
                ),
            ),
        )
        report = CampaignRunner(
            manifest,
            tmp_path / "journal",
            results_dir=tmp_path / "results",
            handle_signals=False,
        ).run()
        assert report.exit_code == EXIT_OK
        assert built == [("defect", "130 MB")]
        assert dict(kernel_calls) == {"defect": 32}
        faults = manifest.entries[2]
        standalone = tmp_path / "standalone.json"
        save_result(
            run_fault_scenario(
                workload="defect",
                experiment_id="defect-faults",
                title=faults.spec().title,
                scenario=scenario,
                fast=True,
            ),
            standalone,
        )
        assert (tmp_path / "results" / "defect-faults.json").read_bytes() == (
            standalone.read_bytes()
        )

    def test_retry_after_timeout_never_gets_the_abandoned_book(
        self, tmp_path, monkeypatch
    ):
        """fig04's first attempt hangs past its deadline holding the
        run's book; the retry and the next entry get another book and
        save the bytes a standalone ``run_experiment`` saves."""
        ids = ["fig04", "fig09"]
        fresh = tmp_path / "fresh"
        for entry_id in ids:
            save_result(
                run_experiment(entry_id, fast=True), fresh / f"{entry_id}.json"
            )
        real = runner_module.run_grid_experiment
        books = []
        release = threading.Event()

        def first_attempt_hangs(spec, fast, book):
            books.append(book)
            if len(books) == 1:
                release.wait(30.0)
            return real(spec, fast, book)

        monkeypatch.setattr(
            runner_module, "run_grid_experiment", first_attempt_hangs
        )
        manifest = CampaignManifest(
            name="abandoned-attempt",
            entries=(
                CampaignEntry("fig04", fast=True, deadline_s=1.0),
                CampaignEntry("fig09", fast=True),
            ),
        )
        try:
            report = CampaignRunner(
                manifest,
                tmp_path / "journal",
                retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
                results_dir=tmp_path / "results",
                handle_signals=False,
            ).run()
        finally:
            release.set()
            for thread in threading.enumerate():
                if thread.name == "campaign-fig04":  # the watchdog's worker
                    thread.join(30.0)
        assert report.exit_code == EXIT_OK
        assert report.outcome("fig04").status == "retried"
        abandoned, retry, next_entry = books
        assert retry is not abandoned and next_entry is not abandoned
        assert next_entry is retry
        for entry_id in ids:
            name = f"{entry_id}.json"
            assert (tmp_path / "results" / name).read_bytes() == (
                fresh / name
            ).read_bytes()

    def test_the_book_drops_workloads_no_later_entry_names(
        self, tmp_path, monkeypatch
    ):
        """Once an entry settles, its workload's pairs leave the book
        unless a later entry (or one of its representatives) names it;
        every saved result keeps the bytes a standalone run saves."""
        ids = ["fig04", "ext-apriori", "ext-neuralnet", "fig09"]
        fresh = tmp_path / "fresh"
        for entry_id in ids:
            save_result(
                run_experiment(entry_id, fast=True), fresh / f"{entry_id}.json"
            )
        books = []

        class SpiedBook(runner_module.KernelBook):
            def __init__(self):
                super().__init__()
                books.append(self)

        monkeypatch.setattr(runner_module, "KernelBook", SpiedBook)
        held = []
        manifest = CampaignManifest(
            name="book-retain",
            entries=tuple(CampaignEntry(i, fast=True) for i in ids),
        )
        report = CampaignRunner(
            manifest,
            tmp_path / "journal",
            results_dir=tmp_path / "results",
            handle_signals=False,
            progress=lambda _line: held.append(len(books[0])),
        ).run()
        assert report.exit_code == EXIT_OK
        assert len(books) == 1
        # defect 130 MB stays for fig09; apriori and neural net go at once.
        assert held == [1, 1, 1, 0]
        for entry_id in ids:
            name = f"{entry_id}.json"
            assert (tmp_path / "results" / name).read_bytes() == (
                fresh / name
            ).read_bytes()

    def test_a_book_is_never_lent_twice_at_once(self):
        """Stress: more borrowers than cores and a short switch interval;
        a shelf that lent a book still out, or lost a check-out to a
        race, would lend one book to two borrowers at once."""
        shelf = runner_module._BookShelf()
        held = set()
        guard = threading.Lock()
        clashes = []

        def borrow(rounds):
            for _ in range(rounds):
                with shelf.lend() as book:
                    with guard:
                        if id(book) in held:
                            clashes.append(id(book))
                        held.add(id(book))
                    time.sleep(0.001)  # an attempt holds its book a while
                    with guard:
                        held.discard(id(book))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=borrow, args=(300,)) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert clashes == []
