"""The crash-safe campaign runner.

Executes a :class:`~repro.campaign.manifest.CampaignManifest` as an
execute → settle loop with three operational guards.  It is the one
engine behind ``repro campaign`` and every ``repro suite`` run (without
``--journal`` the journal is a scratch file and no signal handler is
installed).  Every attempt runs on the thread that called
:meth:`CampaignRunner.run`; nothing runs beside it.

1. **Deadlines.**  :func:`execute_entry` runs one entry.  An entry with
   a deadline (its own ``deadline_s`` or the manifest default) runs
   under the watchdog's ``SIGALRM``; when it exceeds its wall-clock
   deadline it is abandoned, retried per the
   :class:`~repro.faults.retry.RetryPolicy` (real sleeps, same backoff
   semantics the simulated chunk retries use), and finally classified
   ``timed-out`` — without aborting the rest of the campaign.  A run
   with a deadline entry needs the main thread and a free
   ``ITIMER_REAL`` (the watchdog owns it only while a deadline attempt
   runs), and an attempt can overrun its deadline by at most the
   longest single C call it makes.  :func:`execute_entry` returns a
   :class:`~repro.campaign.journal.JournalRecord` with the result it
   encoded, and touches no file.
   Every entry takes its datasets and kernel traces from the run's one
   book (a dataset is built and its kernels recorded once per run),
   retries included: an attempt that raised leaves the book whole,
   because the book stores a dataset only once it is built and a trace
   a pass only once all its kernels ran.
2. **Durability.**  :meth:`CampaignRunner.run` settles records strictly
   in manifest order: each is committed to the
   :class:`~repro.campaign.journal.CampaignJournal` (one line through
   the journal's one held append handle, one ``fsync``), then its
   result artifact is written (write-then-rename, no ``fsync``),
   *before* the next entry runs.  The journal is the only durable
   write: an artifact is a rebuildable copy of the journaled payload
   and never becomes durable by itself, so after an OS crash a
   ``resume=True`` run (``--resume``) rewrites it.  A killed process
   loses at most the entry that was running — a commit cut short
   mid-line counts as never made; a ``resume=True`` run restores
   journaled entries without re-running them, re-saves every artifact
   from the journal, and produces results byte-identical to an
   uninterrupted run (experiment drivers are deterministic and the
   serialization is canonical).
3. **Graceful interruption.**  SIGINT/SIGTERM set a stop flag.  While
   an attempt runs, the handler also raises
   :class:`~repro.campaign.watchdog.CampaignInterruptedError` into it,
   and the attempt is abandoned un-journaled.  A signal during a
   commit, an artifact write or a progress line only sets the flag.
   The runner marks entries that produced no record ``skipped``,
   restores the previous signal handlers, and reports ``interrupted``
   so the CLI can exit with the distinct resumable status code
   (:data:`~repro.campaign.report.EXIT_INTERRUPTED`).  With no handler
   installed, Ctrl-C is a plain :class:`KeyboardInterrupt`.
"""

from __future__ import annotations

import functools
import pathlib
import signal
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.analysis.expectations import EXPECTATIONS, check_expectation
from repro.analysis.results_io import result_from_dict, result_to_dict
from repro.core.durable import atomic_copy_json
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
    require_alarm,
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
    run_inline: Callable[[Callable[[], ExperimentResult]], ExperimentResult],
    sleep: Callable[[float], None] = time.sleep,
) -> Optional[Tuple[JournalRecord, Optional[ExperimentResult]]]:
    """Run one campaign entry's ``driver`` to a settled record, paired
    with the result its payload encodes (``None`` when it timed out).

    ``driver`` is the entry's experiment on the run's book, or the
    runner's ``registry`` override.  Each attempt runs on the calling
    thread under :func:`run_with_deadline`, through ``run_inline``,
    which flags the attempt for the runner's signal handler.  Nothing
    is written here: journal and artifact I/O belong to the settle loop.

    Returns ``None`` when :class:`CampaignInterruptedError` was raised
    into the attempt: it is abandoned, nothing is journaled and the
    entry re-runs on resume.
    """
    deadline_s = entry.effective_deadline_s(default_deadline_s)
    attempt_fn = functools.partial(
        run_with_deadline, driver, deadline_s, label=entry.entry_id
    )
    for attempt in range(1, retry_policy.max_attempts + 1):
        start = time.perf_counter()
        try:
            result = run_inline(attempt_fn)
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
            ), None
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
        ), result
    raise InternalError("retry loop must settle or return")


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
        ``<results_dir>/<entry_id>.json`` (atomically, not fsynced: a
        rebuildable copy of the journaled payload) — including resumed
        entries, so a resumed campaign leaves byte-identical artifacts
        and rebuilds any an OS crash lost.
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
        self._stop = False
        self._attempt_running = False
        self._signal_name: Optional[str] = None

    def _run_inline(
        self, attempt: Callable[[], ExperimentResult]
    ) -> ExperimentResult:
        """One attempt, flagged so the signal handler raises into it.

        The flag is set and cleared only inside :func:`execute_entry`'s
        ``try`` that abandons an interrupted attempt.
        """
        try:
            self._attempt_running = True
            return attempt()
        finally:
            self._attempt_running = False

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
            self._stop = True
            if self._attempt_running:
                raise CampaignInterruptedError

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
        than silently discarding its state.  A manifest with a deadline
        is refused (:class:`CampaignError`) off the main thread or while
        ``ITIMER_REAL`` is armed, before anything runs.
        """
        default_deadline_s = self.manifest.default_deadline_s
        if any(
            e.effective_deadline_s(default_deadline_s) is not None
            for e in self.manifest.entries
        ):
            require_alarm()
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

        self._stop = False
        self._signal_name = None
        report = CampaignReport(
            campaign=self.manifest.name,
            journal_path=self.journal_path,
        )
        # Each entry takes its datasets and kernel traces from the run's
        # one book; once it settles, the book drops the workloads no
        # later entry names (as its workload or a representative).
        live = [e for e in self.manifest.entries if e.entry_id not in journaled]
        book = KernelBook()
        keep: Dict[str, FrozenSet[str]] = {}
        later: FrozenSet[str] = frozenset()
        for entry in reversed(live):
            keep[entry.entry_id] = later
            spec = entry.spec()
            later = later.union(spec.representatives, [spec.workload])
        previous_handlers = self._install_signal_handlers()
        try:
            # Settle strictly in manifest order: each record is
            # committed and its artifact written before the next entry
            # runs.
            for entry in self.manifest.entries:
                record = journaled.get(entry.entry_id)
                resumed = record is not None
                result = None
                if resumed:
                    if record.payload is not None:
                        result = result_from_dict(record.payload)
                elif not self._stop:
                    settled = execute_entry(
                        entry,
                        self.registry.get(
                            entry.entry_id,
                            functools.partial(
                                run_grid_experiment, entry.spec(), entry.fast, book
                            ),
                        ),
                        default_deadline_s,
                        self.retry_policy,
                        self.check_claims,
                        run_inline=self._run_inline,
                        sleep=self._sleep,
                    )
                    book.retain(keep[entry.entry_id])
                    if settled is not None:
                        record, result = settled
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
                if record.payload is not None and self.results_dir is not None:
                    # Resumed entries are re-saved too, so a resumed
                    # campaign leaves byte-identical artifacts and
                    # rebuilds any an OS crash lost.  The artifact is
                    # the journaled payload itself: a copy, not synced.
                    atomic_copy_json(
                        self.results_dir / f"{entry.entry_id}.json",
                        record.payload,
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
            journal.close()
            self._restore_signal_handlers(previous_handlers)
        report.signal_name = self._signal_name
        return report
