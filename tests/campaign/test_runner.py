"""Tests for the crash-safe campaign runner, executing inline.

The fakes are instant and instrumented (see conftest), so crash/resume
behavior is asserted precisely: which entries re-ran, what the journal
holds, and that a resumed campaign's result artifacts are byte-identical
to an uninterrupted run's.  The executor contract (timeouts, retries,
resume, a driver's exception) is in ``test_executor_contract.py``.
"""

import hashlib
import signal
import threading
import time

import pytest

from repro.analysis import save_result
from repro.campaign import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PROBLEMS,
    CampaignEntry,
    CampaignJournal,
    CampaignManifest,
    CampaignRunner,
)
from repro.campaign import runner as runner_module
from repro.errors import CampaignError
from repro.faults import RetryPolicy
from repro.middleware import kernels as kernels_module
from repro.workloads.experiments import run_experiment, run_fault_scenario
from repro.workloads.registry import WorkloadSpec

from tests.campaign.conftest import (
    FAKE_IDS,
    fake_registry,
    fake_result,
    make_manifest,
)


def run_campaign(
    tmp_path, subdir, *, crash_at=None, log=None, deadline_s=None, **kwargs
):
    manifest = make_manifest(deadline_s=deadline_s)
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
        runner.handle_signals = True

        # SIGINT from inside the third entry, which runs inline (no
        # deadline): the runner's handler raises into the attempt, so
        # it never reaches its sleep.
        def stopping_fig04():
            signal.raise_signal(signal.SIGINT)
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

    def test_stop_mid_deadline_attempt_abandons_it(self, tmp_path):
        """A deadline attempt runs on the campaign thread too: SIGINT
        from inside it raises into it, before its sleep, and the
        watchdog's alarm is disarmed on the way out."""
        runner = run_campaign(tmp_path, "c", deadline_s=30.0)
        runner.handle_signals = True

        def stopping_fig04():
            signal.raise_signal(signal.SIGINT)
            time.sleep(5.0)
            return fake_result("fig04")

        runner.registry["fig04"] = stopping_fig04
        start = time.monotonic()
        report = runner.run()
        assert time.monotonic() - start < 4.0
        assert report.exit_code == EXIT_INTERRUPTED
        assert report.signal_name == "SIGINT"
        assert [report.outcome(i).status for i in FAKE_IDS] == [
            "completed", "completed", "skipped", "skipped", "skipped",
            "skipped",
        ]
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

        log = []
        resumed = run_campaign(tmp_path, "c", log=log, deadline_s=30.0).run(
            resume=True
        )
        assert resumed.ok
        assert log == FAKE_IDS[2:]

    def test_signal_after_a_commit_only_stops(self, tmp_path):
        """SIGINT from the progress line, after fig03's commit: fig03
        stays completed, nothing raises, and the rest is skipped."""
        lines = []

        def progress(line):
            lines.append(line)
            if line.startswith("fig03 "):
                signal.raise_signal(signal.SIGINT)

        log = []
        runner = run_campaign(tmp_path, "c", log=log, progress=progress)
        runner.handle_signals = True
        previous = signal.getsignal(signal.SIGINT)
        report = runner.run()
        assert report.exit_code == EXIT_INTERRUPTED
        assert report.signal_name == "SIGINT"
        assert log == FAKE_IDS[:2]
        assert [report.outcome(i).status for i in FAKE_IDS] == [
            "completed", "completed", "skipped", "skipped", "skipped",
            "skipped",
        ]
        assert len(lines) == 2
        journaled = CampaignJournal(tmp_path / "c/journal.json").load()
        assert list(journaled) == FAKE_IDS[:2]
        # The runner restored the handler it replaced.
        assert signal.getsignal(signal.SIGINT) is previous


class TestWhichThread:
    """Every entry runs on the thread that called ``run``, with a
    deadline or without; a run starts no thread."""

    def _threads(self, tmp_path, deadline_s):
        seen = {}

        def spy(entry_id):
            def run():
                thread = threading.current_thread()
                seen[entry_id] = (threading.get_ident(), thread.name)
                return fake_result(entry_id)

            return run

        ids = FAKE_IDS[:2]
        report = CampaignRunner(
            make_manifest(ids, deadline_s=deadline_s),
            tmp_path / "journal.json",
            registry={i: spy(i) for i in ids},
            check_claims=False,
            handle_signals=False,
        ).run()
        assert report.ok
        assert sorted(seen) == sorted(ids)
        return seen

    def test_no_deadline_runs_on_the_calling_thread(self, tmp_path):
        seen = self._threads(tmp_path, None)
        assert {ident for ident, _ in seen.values()} == {threading.get_ident()}

    def test_deadline_runs_on_the_calling_thread(self, tmp_path):
        before = threading.active_count()
        seen = self._threads(tmp_path, 30.0)
        assert {ident for ident, _ in seen.values()} == {threading.get_ident()}
        assert threading.active_count() == before

    def test_an_abandoned_attempt_stops_running(self, tmp_path):
        """A driver that never returns, under a 0.1 s deadline and two
        attempts: both attempts unwind, so once ``run`` returns no
        thread is left and the driver's loop no longer advances."""
        ticks = []

        def hangs():
            while True:
                time.sleep(0.01)
                ticks.append(None)

        before = threading.active_count()
        report = CampaignRunner(
            make_manifest(["fig02"], deadline_s=0.1),
            tmp_path / "journal.json",
            registry={"fig02": hangs},
            check_claims=False,
            handle_signals=False,
        ).run()
        outcome = report.outcome("fig02")
        assert (outcome.status, outcome.attempts) == ("timed-out", 2)
        assert threading.active_count() == before
        settled = len(ticks)
        time.sleep(0.3)
        assert len(ticks) == settled

    def _deadline_runner(self, tmp_path, deadline_s):
        ids = FAKE_IDS[:2]
        return CampaignRunner(
            make_manifest(ids, deadline_s=deadline_s),
            tmp_path / "journal.json",
            registry=fake_registry(ids),
            check_claims=False,
        )

    def test_a_deadline_run_off_the_main_thread_is_refused(self, tmp_path):
        """Off the main thread a deadline run is refused before anything
        runs; a run with no deadline completes there."""
        outcome = {}

        def off_main():
            try:
                self._deadline_runner(tmp_path / "timed", 30.0).run()
            except CampaignError as exc:
                outcome["error"] = exc
            outcome["plain"] = self._deadline_runner(tmp_path, None).run()

        thread = threading.Thread(target=off_main)
        thread.start()
        thread.join(30.0)
        assert "main thread" in str(outcome["error"])
        assert not (tmp_path / "timed").exists()
        assert outcome["plain"].exit_code == EXIT_OK

    def test_a_deadline_run_under_an_armed_timer_is_refused(self, tmp_path):
        """Another owner's ``ITIMER_REAL`` is neither disarmed nor
        shared: the run is refused and the timer keeps running."""
        previous = signal.signal(signal.SIGALRM, lambda *_: None)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            with pytest.raises(CampaignError, match="ITIMER_REAL"):
                self._deadline_runner(tmp_path, 30.0).run()
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


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
    """Entries share the run's datasets and kernel traces, and so do the
    retries of an attempt that raised."""

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

    def test_a_timeout_in_pass_two_keeps_the_book(self, tmp_path, monkeypatch):
        """fig02's first attempt times out inside k-means' second pass,
        after that pass's kernels ran and before its trace stored it.  The
        retry and the next entry use the same book, so each dataset is
        built once, and both save the bytes an uninterrupted run saves."""
        built = []
        make_dataset = WorkloadSpec.make_dataset

        def counted(spec, size_label=None):
            built.append((spec.name, size_label))
            return make_dataset(spec, size_label)

        monkeypatch.setattr(WorkloadSpec, "make_dataset", counted)
        books = []
        real = runner_module.run_grid_experiment

        def spied(spec, fast, book):
            books.append(book)
            return real(spec, fast, book)

        monkeypatch.setattr(runner_module, "run_grid_experiment", spied)

        def run(subdir):
            manifest = CampaignManifest(
                name="pass-two",
                entries=(
                    CampaignEntry("fig02", fast=True, deadline_s=1.0),
                    CampaignEntry("fig11", fast=True),
                ),
            )
            return CampaignRunner(
                manifest,
                tmp_path / subdir / "journal",
                retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
                results_dir=tmp_path / subdir / "results",
                handle_signals=False,
            ).run()

        assert run("plain").outcome("fig02").status == "completed"
        plain_built = list(built)
        assert len(set(plain_built)) == len(plain_built)
        built.clear()
        books.clear()
        real_pieces = kernels_module.KernelTrace.pieces
        real_pass = kernels_module.PassPieces
        recording = []
        hung = []

        def pieces(trace, app, dataset, pass_index):
            if pass_index == len(trace.passes):
                recording.append((app.name, pass_index))
            return real_pieces(trace, app, dataset, pass_index)

        def hangs_in_pass_two(objects, ops, zero):
            recorded = real_pass(objects, ops, zero)
            if not hung and recording[-1] == ("kmeans", 1):
                hung.append(recording[-1])
                for _ in range(3000):  # the 1 s deadline raises into a sleep
                    time.sleep(0.01)
            return recorded

        monkeypatch.setattr(kernels_module.KernelTrace, "pieces", pieces)
        monkeypatch.setattr(kernels_module, "PassPieces", hangs_in_pass_two)
        report = run("timed-out")
        assert hung == [("kmeans", 1)]
        # The retry records k-means' second pass again, not its first.
        assert recording.count(("kmeans", 0)) == 1
        assert recording.count(("kmeans", 1)) == 2
        assert report.outcome("fig02").status == "retried"
        assert report.outcome("fig11").status == "completed"
        first, retry, next_entry = books
        assert first is retry is next_entry
        assert built == plain_built
        for name in ("fig02.json", "fig11.json"):
            assert (tmp_path / "timed-out" / "results" / name).read_bytes() == (
                tmp_path / "plain" / "results" / name
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
