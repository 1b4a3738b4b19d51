"""The crash-safe campaign runner.

Executes a :class:`~repro.campaign.manifest.CampaignManifest` as an
executor → settle pipeline with three operational guards.  It is the
one engine behind ``repro campaign`` and every ``repro suite`` run
(without ``--journal`` the journal is a scratch file and no signal
handler is installed):

1. **Deadlines.**  :func:`execute_entry` runs one entry under the
   watchdog; an entry that exceeds its wall-clock deadline is
   abandoned, retried per the :class:`~repro.faults.retry.RetryPolicy`
   (real sleeps, same backoff semantics the simulated chunk retries
   use), and finally classified ``timed-out`` — without aborting the
   rest of the campaign.  It returns a
   :class:`~repro.campaign.journal.JournalRecord` and touches no file.
   Every entry takes its datasets and kernel traces from the run's one
   book (a dataset is built and its kernels recorded once per run),
   lent to one attempt at a time so an abandoned attempt never shares
   it.
2. **Durability.**  :meth:`CampaignRunner.run` settles records strictly
   in manifest order: each is committed to the
   :class:`~repro.campaign.journal.CampaignJournal` (one line, append +
   fsync), then its result artifact is written (atomic
   write-then-rename), *before* the next record is asked for.  A killed
   process loses at most the entries that were in flight — a commit cut
   short mid-line counts as never made; a ``resume=True`` run restores
   journaled entries without re-running them and produces results
   byte-identical to an uninterrupted run (experiment drivers are
   deterministic and the serialization is canonical).
3. **Graceful interruption.**  SIGINT/SIGTERM set a stop flag; the
   runner finishes the in-progress journal commit, marks entries that
   produced no record ``skipped``, restores the previous signal
   handlers, and reports ``interrupted`` so the CLI can exit with the
   distinct resumable status code
   (:data:`~repro.campaign.report.EXIT_INTERRUPTED`).
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
import signal
import threading
import time
from typing import (
    Callable,
    Collection,
    FrozenSet,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.analysis.expectations import EXPECTATIONS, check_expectation
from repro.analysis.results_io import (
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.errors import CampaignError, InternalError
from repro.faults.retry import WATCHDOG_RETRY_POLICY, RetryPolicy
from repro.middleware.kernels import KernelBook
from repro.workloads.experiments import ExperimentResult, run_grid_experiment

from repro.campaign.journal import CampaignJournal, JournalRecord
from repro.campaign.manifest import CampaignEntry, CampaignManifest
from repro.campaign.report import CampaignOutcome, CampaignReport
from repro.campaign.watchdog import (
    CampaignInterruptedError,
    DeadlineExceededError,
    run_with_deadline,
)

__all__ = ["CampaignRunner", "execute_entry"]

_HANDLED_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def execute_entry(
    entry: CampaignEntry,
    driver: Callable[[], ExperimentResult],
    default_deadline_s: Optional[float],
    retry_policy: RetryPolicy,
    check_claims: bool,
    *,
    stop: Optional[threading.Event] = None,
    sleep: Callable[[float], None] = time.sleep,
    poll_interval_s: float = 0.02,
) -> Optional[JournalRecord]:
    """Run one campaign entry's ``driver`` to a settled record.

    ``driver`` is the entry's experiment on the run's book, or the
    runner's ``registry`` override.  Nothing is written here: journal
    and artifact I/O belong to the settle loop.

    Returns ``None`` when ``stop`` was set mid-attempt: the attempt is
    abandoned, nothing is journaled and the entry re-runs on resume.
    """
    deadline_s = entry.effective_deadline_s(default_deadline_s)
    for attempt in range(1, retry_policy.max_attempts + 1):
        start = time.perf_counter()
        try:
            result = run_with_deadline(
                driver,
                deadline_s,
                stop=stop,
                label=entry.entry_id,
                poll_interval_s=poll_interval_s,
            )
        except CampaignInterruptedError:
            return None
        except DeadlineExceededError as exc:
            if attempt < retry_policy.max_attempts:
                delay = retry_policy.backoff_s(attempt)
                if delay > 0:
                    sleep(delay)
                continue
            return JournalRecord(
                entry_id=entry.entry_id,
                status="timed-out",
                attempts=attempt,
                elapsed_s=time.perf_counter() - start,
                payload=None,
                violations=[str(exc)],
            )
        elapsed = time.perf_counter() - start
        violations: List[str] = []
        if (
            check_claims
            and entry.kind == "experiment"
            and entry.resolved_experiment_id in EXPECTATIONS
        ):
            violations = check_expectation(result)
        return JournalRecord(
            entry_id=entry.entry_id,
            status="completed" if attempt == 1 else "retried",
            attempts=attempt,
            elapsed_s=elapsed,
            payload=result_to_dict(result),
            violations=violations,
        )
    raise InternalError("retry loop must settle or return")


class _BookShelf:
    """A serial run's one :class:`KernelBook`, lent to one attempt at a time.

    An attempt borrows the book and returns it when it finishes.  The
    watchdog leaves a timed-out or interrupted attempt running on its
    daemon thread, still holding (and maybe writing) the book, so while
    the book is out a later attempt, retry or entry gets a fresh one.
    The first book returned is kept; a book is never shared by two
    attempts that may run at once.
    """

    def __init__(self) -> None:
        self._book: Optional[KernelBook] = KernelBook()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def lend(self) -> Iterator[KernelBook]:
        """The book, or a fresh one while it is out; taken back unless
        the borrower raised."""
        with self._lock:
            book = self._book if self._book is not None else KernelBook()
            self._book = None
        yield book
        with self._lock:
            if self._book is None:
                self._book = book

    def retain(self, workloads: Collection[str]) -> None:
        """Drop the book's pairs for every workload not in ``workloads``
        (a book that is out is left to its borrower)."""
        with self._lock:
            if self._book is not None:
                self._book.retain(workloads)

    def run(self, entry: CampaignEntry) -> ExperimentResult:
        """``entry``'s experiment, its datasets and traces from the book."""
        with self.lend() as book:
            return run_grid_experiment(entry.spec(), entry.fast, book)


class CampaignRunner:
    """Run a campaign durably; see the module docstring for guarantees.

    Parameters
    ----------
    manifest:
        What to run, in order.
    journal_path:
        Where settled entries are committed.  The journal binds to the
        manifest's fingerprint; resuming against a journal written for a
        different manifest is refused.
    retry_policy:
        Watchdog retry-after-timeout budget and backoff
        (:data:`~repro.faults.retry.WATCHDOG_RETRY_POLICY` by default).
    results_dir:
        When set, every productive entry's result is also saved as
        ``<results_dir>/<entry_id>.json`` (atomically) — including
        resumed entries, so a resumed campaign leaves byte-identical
        artifacts.
    registry:
        Test seam: per-entry-id callables that override the book-backed
        experiment drivers.
    check_claims:
        Check results against the paper's recorded expectations.
    handle_signals:
        Install SIGINT/SIGTERM handlers for graceful checkpointing
        (skipped automatically off the main thread).
    progress:
        Callback receiving one human-readable line per settled entry.
    sleep:
        Test seam for the real backoff sleeps between timeout retries.
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        journal_path: str | pathlib.Path,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        results_dir: Optional[str | pathlib.Path] = None,
        registry: Optional[Mapping[str, Callable[[], ExperimentResult]]] = None,
        check_claims: bool = True,
        handle_signals: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        poll_interval_s: float = 0.02,
    ) -> None:
        self.manifest = manifest
        self.journal_path = pathlib.Path(journal_path)
        self.retry_policy = retry_policy or WATCHDOG_RETRY_POLICY
        self.results_dir = (
            pathlib.Path(results_dir) if results_dir is not None else None
        )
        self.registry = dict(registry or {})
        self.check_claims = check_claims
        self.handle_signals = handle_signals
        self.progress = progress
        self._sleep = sleep
        self._poll_interval_s = poll_interval_s
        self._stop = threading.Event()
        self._signal_name: Optional[str] = None

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def _records(
        self, live: Sequence[CampaignEntry]
    ) -> Generator[Optional[JournalRecord], None, None]:
        """One record per live entry, in manifest order.

        ``None`` means the entry did not run to a settled record (the
        operator interrupted) and re-runs on resume.  Each entry runs
        when the settle loop asks for it, and takes its datasets and
        kernel traces from the run's one book: a dataset is built and
        its kernels recorded once per run, not once per entry.  Once an
        entry settles, the book drops the workloads no later entry names
        (as its workload or a representative); the rest goes when the
        run closes this generator.
        """
        shelf = _BookShelf()
        later: List[FrozenSet[str]] = [frozenset()]
        for entry in reversed(live[1:]):
            spec = entry.spec()
            later.append(later[-1].union(spec.representatives, [spec.workload]))
        for entry, keep in zip(live, reversed(later)):
            if self._stop.is_set():
                yield None
                continue
            record = execute_entry(
                entry,
                self.registry.get(
                    entry.entry_id, functools.partial(shelf.run, entry)
                ),
                self.manifest.default_deadline_s,
                self.retry_policy,
                self.check_claims,
                stop=self._stop,
                sleep=self._sleep,
                poll_interval_s=self._poll_interval_s,
            )
            shelf.retain(keep)
            yield record

    # ------------------------------------------------------------------
    # Signal handling
    # ------------------------------------------------------------------

    def _install_signal_handlers(self):
        if not self.handle_signals:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def _handler(signum, _frame):
            self._signal_name = signal.Signals(signum).name
            self._stop.set()

        for signum in _HANDLED_SIGNALS:
            previous[signum] = signal.signal(signum, _handler)
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # ------------------------------------------------------------------
    # The campaign loop
    # ------------------------------------------------------------------

    def run(self, resume: bool = False) -> CampaignReport:
        """Execute the campaign; see the class docstring.

        ``resume=True`` continues an existing journal (a missing journal
        simply starts fresh, so resume is safe to pass unconditionally);
        ``resume=False`` refuses to touch an existing journal rather
        than silently discarding its state.
        """
        journal = CampaignJournal(self.journal_path)
        fingerprint = self.manifest.fingerprint()
        if journal.exists:
            if not resume:
                raise CampaignError(
                    f"campaign journal '{self.journal_path}' already "
                    "exists; pass resume=True (--resume) to continue it, "
                    "or delete the journal to start fresh"
                )
            journaled = journal.load(
                expected_fingerprint=fingerprint,
                legacy_fingerprint=self.manifest.fingerprint(legacy=True),
            )
        else:
            journal.initialize(self.manifest.name, fingerprint)
            journaled = {}

        self._stop.clear()
        self._signal_name = None
        report = CampaignReport(
            campaign=self.manifest.name,
            journal_path=self.journal_path,
        )
        records = self._records(
            [e for e in self.manifest.entries if e.entry_id not in journaled]
        )
        previous_handlers = self._install_signal_handlers()
        try:
            # Settle strictly in manifest order: each record is
            # committed and its artifact written before the next entry
            # runs.
            for entry in self.manifest.entries:
                record = journaled.get(entry.entry_id)
                resumed = record is not None
                if not resumed:
                    record = next(records)
                    if record is not None:
                        journal.commit(record)
                if record is None:
                    report.interrupted = True
                    report.outcomes.append(
                        CampaignOutcome(
                            entry=entry,
                            status="skipped",
                            attempts=0,
                            elapsed_s=0.0,
                            result=None,
                            violations=[],
                        )
                    )
                    continue
                result = None
                if record.payload is not None:
                    # Resumed entries are re-saved too, so a resumed
                    # campaign leaves byte-identical artifacts.
                    result = result_from_dict(record.payload)
                    if self.results_dir is not None:
                        save_result(
                            result, self.results_dir / f"{entry.entry_id}.json"
                        )
                status = record.status
                if resumed and status != "timed-out":
                    status = "resumed"
                outcome = CampaignOutcome(
                    entry=entry,
                    status=status,
                    attempts=record.attempts,
                    elapsed_s=record.elapsed_s,
                    result=result,
                    violations=list(record.violations),
                )
                report.outcomes.append(outcome)
                if self.progress is not None:
                    self.progress(
                        f"{outcome.entry_id} {outcome.status} "
                        f"({outcome.elapsed_s:.1f}s)"
                    )
        finally:
            records.close()
            self._restore_signal_handlers(previous_handlers)
        report.signal_name = self._signal_name
        return report
