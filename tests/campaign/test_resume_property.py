"""Property: resume after an interrupt at *any* journal position
converges to the same report as an uninterrupted run.

Hypothesis drives the crash position (and a double-crash variant); the
reports are compared on everything observable — entry ids, results
(canonical serialized form), violations — not on wall-clock timings.
"""

import pathlib
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.results_io import result_to_dict
from repro.campaign import CampaignRunner

from tests.campaign.conftest import FAKE_IDS, fake_registry, make_manifest


def run_to_report(root, crash_at=None):
    """One campaign run; returns the report (None if it crashed)."""
    runner = CampaignRunner(
        make_manifest(),
        root / "journal.json",
        registry=fake_registry(FAKE_IDS, crash_at=crash_at),
        results_dir=root / "results",
        check_claims=False,
        handle_signals=False,
    )
    try:
        return runner.run(resume=(root / "journal.json").exists())
    except RuntimeError:
        return None  # injected crash — journal checkpoint stands


def comparable(report):
    """The timing-independent content of a campaign report."""
    return {
        "interrupted": report.interrupted,
        "entries": [
            (
                o.entry_id,
                result_to_dict(o.result),
                tuple(o.violations),
            )
            for o in report.outcomes
        ],
    }


def reference():
    root = pathlib.Path(tempfile.mkdtemp(prefix="campaign-ref-"))
    try:
        return comparable(run_to_report(root))
    finally:
        shutil.rmtree(root)


REFERENCE = reference()


@settings(max_examples=20, deadline=None)
@given(crash_at=st.integers(min_value=0, max_value=len(FAKE_IDS) - 1))
def test_resume_after_crash_at_any_position_converges(crash_at):
    # tmp_path is function-scoped, not example-scoped — use a fresh
    # directory per hypothesis example instead.
    root = pathlib.Path(tempfile.mkdtemp(prefix="campaign-prop-"))
    try:
        assert run_to_report(root, crash_at=crash_at) is None
        report = run_to_report(root)
        assert report is not None
        assert comparable(report) == REFERENCE
        # Entry provenance: everything before the crash was restored
        # from the journal, the rest ran live.
        statuses = [report.outcome(i).status for i in FAKE_IDS]
        assert statuses == ["resumed"] * crash_at + ["completed"] * (
            len(FAKE_IDS) - crash_at
        )
    finally:
        shutil.rmtree(root)


@settings(max_examples=10, deadline=None)
@given(
    first=st.integers(min_value=0, max_value=len(FAKE_IDS) - 1),
    second=st.integers(min_value=0, max_value=len(FAKE_IDS) - 1),
)
def test_repeated_crashes_still_converge(first, second):
    root = pathlib.Path(tempfile.mkdtemp(prefix="campaign-prop2-"))
    try:
        assert run_to_report(root, crash_at=first) is None
        # The second crash position indexes the original entry list; a
        # position the journal already settled cannot crash again, so
        # the resume may complete cleanly on the first try.
        maybe = run_to_report(root, crash_at=second)
        if maybe is None:
            maybe = run_to_report(root)
        assert maybe is not None
        assert comparable(maybe) == REFERENCE
    finally:
        shutil.rmtree(root)
