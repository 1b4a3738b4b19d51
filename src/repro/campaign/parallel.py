"""Process-pool record source for campaigns.

``repro campaign --workers N`` computes campaign entries in a
:class:`concurrent.futures.ProcessPoolExecutor`.  Everything else —
the journal prologue, manifest-order settlement, durability, deadlines,
statuses — is :class:`~repro.campaign.runner.CampaignRunner`'s: workers
call the same :func:`~repro.campaign.runner.execute_entry` and hand
back its :class:`~repro.campaign.journal.JournalRecord`; all journal
and artifact I/O happens in the parent's settle loop, so two processes
never race on a file and the bytes match a serial run (only the
wall-clock ``elapsed_s`` fields differ, as they do between any two
serial runs).  That an entry point computes the same record in a worker
as in-process is the effect analysis's ``process-pool-safe`` tier for
its certified roots, proved by CI's lint gate and the tier-1 suite
(DESIGN §17), not at start-up.

Submission window
-----------------
Entries are submitted through a sliding window of ``2 * workers`` (the
pool pre-queues up to ``workers + 1`` items into its uncancellable IPC
call queue, so unbounded submission would make interruption drain the
whole manifest; the window also bounds memory for huge manifests while
keeping every worker fed).

Interruption: SIGINT/SIGTERM set the stop flag; submitted-but-pending
futures are cancelled and never-submitted entries are reported
``skipped`` (they re-run on ``--resume``), while entries already
executing in a worker are drained and journaled — work that happened
is never thrown away.  The CLI then exits with
:data:`~repro.campaign.report.EXIT_INTERRUPTED` as usual.
"""

from __future__ import annotations

import collections
import concurrent.futures
import pathlib
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Generator, Optional, Sequence

from repro.errors import CampaignError

from repro.campaign.journal import JournalRecord
from repro.campaign.manifest import CampaignEntry, CampaignManifest
from repro.campaign.runner import CampaignRunner, execute_entry

__all__ = ["ParallelCampaignRunner"]


class ParallelCampaignRunner(CampaignRunner):
    """Process-pool campaign runner; see the module docstring.

    Accepts everything :class:`~repro.campaign.runner.CampaignRunner`
    does, plus:

    workers:
        Worker process count (``>= 1``).

    Registry overrides must be module-level functions (they cross the
    process boundary by pickle reference).
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        journal_path: str | pathlib.Path,
        *,
        workers: int,
        **kwargs,
    ) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        super().__init__(manifest, journal_path, **kwargs)
        self.workers = workers

    def _records(
        self, live: Sequence[CampaignEntry]
    ) -> Generator[Optional[JournalRecord], None, None]:
        """Records computed on the pool, yielded in manifest order.

        ``None`` for an entry that was cancelled before it started or
        never submitted at all: it re-runs on ``--resume``.
        """
        window = 2 * self.workers
        pending = collections.deque(live)
        futures: Dict[str, "concurrent.futures.Future[JournalRecord]"] = {}

        def cancel_unstarted() -> None:
            pending.clear()  # never-submitted entries become skips
            for future in futures.values():
                future.cancel()  # no-op once running or done

        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            ) as pool:

                def top_up() -> None:
                    # A stop observed here (e.g. set while the last
                    # record was settling) must win before any new
                    # submission widens the drain set.
                    if self._stop.is_set():
                        cancel_unstarted()
                        return
                    while pending and len(futures) < window:
                        entry = pending.popleft()
                        futures[entry.entry_id] = pool.submit(
                            execute_entry, *self._entry_args(entry)
                        )

                top_up()
                for entry in live:
                    future = futures.get(entry.entry_id)
                    record: Optional[JournalRecord] = None
                    while future is not None and record is None:
                        if self._stop.is_set():
                            cancel_unstarted()
                        if future.cancelled():
                            break
                        try:
                            record = future.result(
                                timeout=self._poll_interval_s
                            )
                        except concurrent.futures.TimeoutError:
                            continue
                    futures.pop(entry.entry_id, None)
                    yield record
                    top_up()
        except BrokenProcessPool as exc:
            raise CampaignError(
                "parallel campaign worker pool broke (a worker died "
                "mid-entry); the journal holds every entry settled so "
                "far — re-run with --resume, or serially without "
                "--workers"
            ) from exc
