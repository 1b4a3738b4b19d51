"""Shared fixtures for the campaign-engine tests.

The runner tests use *fake* experiment callables injected through the
runner's ``registry`` seam: deterministic, instant, and instrumented
(every invocation is logged), so crash/resume behavior can be asserted
precisely without waiting on real figure reproductions.  Entry ids must
still be registered experiment ids (the manifest validates them), so
the fakes borrow real figure ids.

Two kinds of fake: ``fake_registry`` builds closures (they can log
into a list), ``picklable_registry`` wraps module-level drivers in
``functools.partial`` (slow, hanging or refusing drivers, bound to
their entry id).
"""

import dataclasses
import functools
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign import CampaignEntry, CampaignJournal, CampaignManifest
from repro.workloads.experiments import ExperimentResult, ExperimentRow

#: Real experiment ids the fake campaigns borrow (manifest-valid).
FAKE_IDS = ["fig02", "fig03", "fig04", "fig05", "fig06", "fig07"]


def fake_result(entry_id: str, rows: int = 3) -> ExperimentResult:
    """A deterministic stand-in for a figure reproduction."""
    result = ExperimentResult(
        experiment_id=entry_id,
        title=f"Fake reproduction of {entry_id}",
        workload="kmeans",
    )
    result.metadata = {"base_profile": "1-1", "dataset_bytes": 1400.0}
    for i in range(rows):
        result.rows.append(
            ExperimentRow(
                data_nodes=1,
                compute_nodes=2**i,
                model="global reduction",
                actual=1.0 + i,
                predicted=1.05 + i,
            )
        )
        result.rows.append(
            ExperimentRow(
                data_nodes=1,
                compute_nodes=2**i,
                model="no communication",
                actual=1.0 + i,
                predicted=1.5 + i,
            )
        )
    return result


def fake_registry(
    ids: Sequence[str],
    log: Optional[List[str]] = None,
    crash_at: Optional[int] = None,
) -> Dict[str, Callable[[], ExperimentResult]]:
    """Instant deterministic callables, optionally crashing at index
    ``crash_at`` (simulating the process dying mid-campaign)."""

    def make(index: int, entry_id: str):
        def run() -> ExperimentResult:
            if log is not None:
                log.append(entry_id)
            if crash_at is not None and index == crash_at:
                raise RuntimeError(f"injected crash at '{entry_id}'")
            return fake_result(entry_id)

        return run

    return {e: make(i, e) for i, e in enumerate(ids)}


def make_manifest(
    ids: Sequence[str] = FAKE_IDS,
    deadline_s: Optional[float] = None,
    name: str = "fake-campaign",
) -> CampaignManifest:
    return CampaignManifest(
        name=name,
        entries=tuple(CampaignEntry(entry_id=i) for i in ids),
        default_deadline_s=deadline_s,
    )


# ----------------------------------------------------------------------
# Module-level (picklable) fake drivers
# ----------------------------------------------------------------------


def fake_driver(entry_id: str):
    return fake_result(entry_id)


def slow_driver(entry_id: str, duration_s: float):
    time.sleep(duration_s)
    return fake_result(entry_id)


def boom_driver(entry_id: str):
    raise RuntimeError(f"driver for '{entry_id}' must not run")


def hang_once_driver(entry_id: str, marker: str):
    """First call (no marker file yet) hangs; later calls are instant."""
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text(entry_id)
        time.sleep(10.0)
    return fake_result(entry_id)


def picklable_registry(ids, driver=fake_driver, *extra):
    return {
        entry_id: functools.partial(driver, entry_id, *extra)
        for entry_id in ids
    }


def journal_projection(path: pathlib.Path):
    """The journal minus its wall-clock fields (the determinism view).

    Read through ``CampaignJournal.load`` — every checksum verified —
    so it means the same for any on-disk framing.
    """
    journal = CampaignJournal(path)
    entries = [dataclasses.asdict(r) for r in journal.load().values()]
    for entry in entries:
        del entry["elapsed_s"]
    return {
        "campaign": journal.campaign,
        "manifest_sha256": journal.fingerprint,
        "entries": entries,
    }
