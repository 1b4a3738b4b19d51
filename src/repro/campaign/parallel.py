"""Certificate-gated process-pool record source for campaigns.

``repro campaign --workers N`` computes campaign entries in a
:class:`concurrent.futures.ProcessPoolExecutor`.  Everything else —
the journal prologue, manifest-order settlement, durability, deadlines,
statuses — is :class:`~repro.campaign.runner.CampaignRunner`'s: workers
call the same :func:`~repro.campaign.runner.execute_entry` and hand
back its :class:`~repro.campaign.journal.JournalRecord`; all journal
and artifact I/O happens in the parent's settle loop, so two processes
never race on a file and the bytes match a serial run (only the
wall-clock ``elapsed_s`` fields differ, as they do between any two
serial runs).  This module holds what is specific to the pool, plus
one additional precondition: **no entry point may run in a worker
process unless the effect analysis proves it process-pool-safe.**

Why a proof, not a convention
-----------------------------
Parallel results are only trustworthy if running an experiment in a
worker process is observationally identical to running it in-process:
no writes to module state another entry could read, no ambient
nondeterminism (clock/RNG/pid), no argument mutation, no
order-sensitive iteration feeding the serialized output.  Those are
exactly the effect tiers the lint layer's interprocedural analysis
(:mod:`repro.lint.effects`) computes, so :func:`verify_pool_safety`
re-runs that analysis at startup and refuses to start the pool if any
submitted entry point fails to certify ``process-pool-safe`` or better
— the campaign falls back to an error, never to silently-wrong
parallel output.

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
from typing import Callable, Dict, Generator, List, Mapping, Optional, Sequence

from repro.errors import CampaignError
from repro.workloads.experiments import ExperimentResult

from repro.campaign.journal import JournalRecord
from repro.campaign.manifest import CampaignEntry, CampaignManifest
from repro.campaign.report import CampaignReport
from repro.campaign.runner import CampaignRunner, execute_entry

__all__ = [
    "ParallelCampaignRunner",
    "PoolSafetyError",
    "verify_pool_safety",
]


class PoolSafetyError(CampaignError):
    """An entry point failed (or lost) its process-pool-safety proof."""


def verify_pool_safety(
    registry: Optional[Mapping[str, Callable[[], ExperimentResult]]] = None,
    *,
    cache_path: Optional[pathlib.Path] = None,
) -> Dict[str, str]:
    """Prove every campaign entry point process-pool-safe, or refuse.

    Re-runs the effect analysis (:func:`repro.lint.effects.analyze_effects`)
    over the installed ``repro`` source tree and requires every certified
    campaign root — and every registry override defined inside the tree —
    to analyze at tier ``process-pool-safe`` or better.  This checks the
    *source as it exists now*, so an edit that quietly introduces shared
    state or ambient nondeterminism revokes parallelism immediately, even
    if a stale committed certificate still claims otherwise.

    Returns the proven tier per entry-point qualname.  Raises
    :class:`PoolSafetyError` listing every failure (with its inferred
    effects) when any entry point cannot be certified.
    """
    # Imported lazily: the campaign layer must not pay the lint layer's
    # import cost (or require its presence) for serial runs.
    from repro.lint.effects import (
        CERTIFIED_ROOTS,
        TIER_POOL_SAFE,
        TIER_RANK,
        analyze_effects,
    )

    import repro

    package_dir = pathlib.Path(repro.__file__).resolve().parent
    result = analyze_effects(
        [package_dir], root=package_dir.parent, cache_path=cache_path
    )
    analysis = result.analysis

    required: List[str] = list(CERTIFIED_ROOTS)
    for entry_id, fn in sorted((registry or {}).items()):
        module = getattr(fn, "__module__", "") or ""
        qualname = getattr(fn, "__qualname__", "") or repr(fn)
        if module == "repro" or module.startswith("repro."):
            required.append(f"{module}.{qualname}")
        else:
            raise PoolSafetyError(
                f"registry override for entry '{entry_id}' "
                f"({module}.{qualname}) is defined outside the analyzed "
                "'repro' tree, so it cannot be certified process-pool-"
                "safe; run it serially, or construct "
                "ParallelCampaignRunner(certify=False) if you accept "
                "uncertified parallelism in a test harness"
            )

    proven: Dict[str, str] = {}
    failures: List[str] = []
    floor = TIER_RANK[TIER_POOL_SAFE]
    for qualname in required:
        tier = analysis.tiers.get(qualname)
        if tier is None:
            failures.append(f"{qualname}: not found by the effect analysis")
            continue
        proven[qualname] = tier
        if TIER_RANK[tier] < floor:
            failures.append(
                f"{qualname}: analyzes as '{tier}' "
                f"(effects: {analysis.effect_words(qualname)})"
            )
    if failures:
        raise PoolSafetyError(
            "refusing to start the process pool; entry point(s) lost "
            "their process-pool-safety certificate:\n  "
            + "\n  ".join(failures)
            + "\nfix the effect regression (repro lint src/repro "
            "--effects) or run the campaign serially"
        )
    return proven


class ParallelCampaignRunner(CampaignRunner):
    """Process-pool campaign runner; see the module docstring.

    Accepts everything :class:`~repro.campaign.runner.CampaignRunner`
    does, plus:

    workers:
        Worker process count (``>= 1``).
    certify:
        Run :func:`verify_pool_safety` before starting the pool
        (default).  ``certify=False`` is a test-harness seam only —
        registry callables from test modules live outside the analyzed
        tree and cannot be certified.

    Registry overrides must be module-level functions (they cross the
    process boundary by pickle reference).
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        journal_path: str | pathlib.Path,
        *,
        workers: int,
        certify: bool = True,
        **kwargs,
    ) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        super().__init__(manifest, journal_path, **kwargs)
        self.workers = workers
        self.certify = certify

    def run(self, resume: bool = False) -> CampaignReport:
        """Prove the pool safe, then run the campaign as usual.

        The gate fires before any durable state is touched.
        """
        if self.certify:
            verify_pool_safety(self.registry)
        return super().run(resume)

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
