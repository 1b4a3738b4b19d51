"""The whole-program layer: REP101-REP104 on fixture mini-trees.

Each fixture under ``fixtures/flow/<case>/`` is a miniature source tree
(``src/repro/...``) so path-scoped behavior — public-API modules for
REP103, the prediction core for REP104, the source allowlist — applies
exactly as it does on the real repository.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.lint import analyze_paths, lint_paths

FLOW_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"


def analyze_tree(tree: pathlib.Path, cache_path=None):
    return analyze_paths(
        [tree / "src"], root=tree, cache_path=cache_path
    )


def codes_of(result):
    return sorted({f.code for f in result.findings})


# ---------------------------------------------------------------------------
# Good/bad fixture pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, expected_codes",
    [
        ("rep101_bad", ["REP101"]),
        ("rep102_bad", ["REP102"]),
        ("rep103_bad", ["REP103"]),
        ("rep104_bad", ["REP104"]),
    ],
)
def test_bad_fixture_trees_are_detected(case, expected_codes):
    result = analyze_tree(FLOW_FIXTURES / case)
    assert codes_of(result) == expected_codes, [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.findings
    ]


@pytest.mark.parametrize(
    "case",
    ["rep101_good", "rep102_good", "rep103_good", "rep104_good"],
)
def test_good_fixture_trees_are_clean(case):
    result = analyze_tree(FLOW_FIXTURES / case)
    assert result.findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.findings
    ]


def test_two_hop_clock_laundering_is_followed_to_the_sink():
    """rep101_bad routes ticks() → _now → _stamp → dict → writer."""
    result = analyze_tree(FLOW_FIXTURES / "rep101_bad")
    (finding,) = result.findings
    assert finding.code == "REP101"
    assert finding.path == "src/repro/broker/writer.py"
    assert "clock-tainted" in finding.message
    assert "atomic_write_json" in finding.message


def test_rep103_reports_the_leaking_call_site_and_origin():
    result = analyze_tree(FLOW_FIXTURES / "rep103_bad")
    by_message = sorted(f.message for f in result.findings)
    assert len(by_message) == 2
    assert "public API 'submit' can leak builtin ValueError" in by_message[1]
    assert "repro.broker.codec._decode" in by_message[1]
    assert "public API 'route' can leak builtin KeyError" in by_message[0]


def test_rep104_units_bug_behind_annotated_helper():
    result = analyze_tree(FLOW_FIXTURES / "rep104_bad")
    messages = sorted(f.message for f in result.findings)
    assert any("adds s to B" in m for m in messages)
    assert any("assigns B to 't_disk'" in m for m in messages)
    assert any("multiplies two durations" in m for m in messages)


# ---------------------------------------------------------------------------
# Call graph and purity summaries
# ---------------------------------------------------------------------------


def test_callgraph_golden_for_rep101_bad():
    result = analyze_tree(FLOW_FIXTURES / "rep101_bad")
    edges = result.callgraph.to_dict()
    assert edges["repro.broker.writer.flush"] == [
        "repro.broker.timeutil._stamp"
    ]
    assert edges["repro.broker.timeutil._stamp"] == [
        "repro.broker.timeutil._now"
    ]
    assert edges["repro.broker.timeutil._now"] == []


def test_purity_summaries_propagate_bottom_up():
    analysis = analyze_tree(FLOW_FIXTURES / "rep101_bad").analysis
    assert analysis.purity("repro.broker.timeutil._now") == "clock"
    assert analysis.purity("repro.broker.timeutil._stamp") == "clock"
    assert analysis.purity("repro.broker.writer.flush") == "clock+io"


def test_good_tree_functions_are_deterministic():
    analysis = analyze_tree(FLOW_FIXTURES / "rep101_good").analysis
    assert analysis.purity("repro.broker.writer._stamp") == "deterministic"
    # The allowlisted watchdog still reports honest effects — only its
    # *taint* is suppressed, not its purity summary.
    assert (
        analysis.purity("repro.campaign.watchdog.journal_heartbeat")
        == "clock+io"
    )


def test_sccs_handle_mutual_recursion(tmp_path):
    pkg = tmp_path / "src" / "repro" / "broker"
    pkg.mkdir(parents=True)
    (pkg / "loop.py").write_text(
        "from time import time as ticks\n"
        "from repro.core.durable import canonical_json\n\n\n"
        "def _ping(n):\n"
        "    if n <= 0:\n"
        "        return ticks()\n"
        "    return _pong(n - 1)\n\n\n"
        "def _pong(n):\n"
        "    return _ping(n - 1)\n\n\n"
        "def render(n):\n"
        "    return canonical_json({'v': _ping(n)})\n"
    )
    result = analyze_tree(tmp_path)
    assert codes_of(result) == ["REP101"]
    # _ping and _pong share one SCC
    comp = [
        c
        for c in result.callgraph.order
        if "repro.broker.loop._ping" in c
    ]
    assert comp and "repro.broker.loop._pong" in comp[0]


def test_container_mutation_carries_taint(tmp_path):
    """`payload['at'] = stamp()` taints `payload`, so writing the dict
    afterwards is a clock leak even though the tainted value never flows
    through a plain name assignment."""
    pkg = tmp_path / "src" / "repro" / "broker"
    pkg.mkdir(parents=True)
    (pkg / "tmod.py").write_text(
        "from time import monotonic as ticks\n\n\n"
        "def _now():\n"
        "    return ticks()\n\n\n"
        "def stamp():\n"
        "    return _now()\n"
    )
    (pkg / "writer.py").write_text(
        "from repro.core.durable import atomic_write_json\n\n"
        "from repro.broker.tmod import stamp\n\n\n"
        "def flush(path, payload):\n"
        "    payload['at'] = stamp()\n"
        "    atomic_write_json(path, payload)\n"
    )
    result = analyze_tree(tmp_path)
    assert codes_of(result) == ["REP101"]
    (finding,) = result.findings
    assert finding.path == "src/repro/broker/writer.py"


# ---------------------------------------------------------------------------
# Acceptance: a planted aliased leak in repro.analysis
# ---------------------------------------------------------------------------


PLANTED = '''\
"""Throwaway scratch module with an aliased interprocedural leak."""

from time import monotonic as ticks

from repro.core.durable import atomic_write_json


def _elapsed():
    return ticks()


def snapshot(path):
    atomic_write_json(path, {"wall": _elapsed()})
'''


def test_planted_leak_in_analysis_caught_by_flow_not_plain_lint(
    tmp_path, repo_root
):
    dest = tmp_path / "src" / "repro" / "analysis"
    shutil.copytree(repo_root / "src" / "repro" / "analysis", dest)
    planted = dest / "_scratch.py"
    planted.write_text(PLANTED)

    plain = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [f for f in plain if f.path.endswith("_scratch.py")] == []

    flow = analyze_paths([tmp_path / "src"], root=tmp_path)
    leaks = [f for f in flow.findings if f.code == "REP101"]
    assert len(leaks) == 1
    assert leaks[0].path == "src/repro/analysis/_scratch.py"
    assert "clock-tainted" in leaks[0].message
