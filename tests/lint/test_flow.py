"""The flow layer (REP104) and the former whole-program fixtures.

Each fixture under ``fixtures/flow/<case>/`` is a miniature source tree
(``src/repro/...``) so path-scoped behavior — the prediction core for
REP104, REP001's allowlist — applies exactly as it does on the real
repository.  REP104 is the flow layer's one rule.  The ``rep101``-
``rep103`` trees witnessed the deleted taint and raise-set rules; each
bad one is now reported at its read or raise line by the REP00x rule
that bans the read or raise itself (import aliases resolved), and
their call graphs exercise the effect layer's call-graph builder.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.lint import analyze_effects, analyze_paths, lint_paths
from repro.lint.effects import TIER_DETERMINISTIC, TIER_RANK

FLOW_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"


def lint_tree(tree: pathlib.Path):
    """What a directory run reports without ``--effects``/``--perf``:
    the REP00x rules plus the flow layer."""
    paths = [tree / "src"]
    return lint_paths(paths, root=tree) + analyze_paths(paths, root=tree).findings


def effects_of(tree: pathlib.Path):
    return analyze_effects([tree / "src"], root=tree)


def codes_of(findings):
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------------------
# Good/bad fixture pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, expected_codes",
    [
        ("rep101_bad", ["REP001"]),
        ("rep102_bad", ["REP002"]),
        ("rep103_bad", ["REP005"]),
        ("rep104_bad", ["REP104"]),
    ],
)
def test_bad_fixture_trees_are_detected(case, expected_codes):
    findings = lint_tree(FLOW_FIXTURES / case)
    assert codes_of(findings) == expected_codes, [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in findings
    ]


@pytest.mark.parametrize(
    "case",
    ["rep101_good", "rep102_good", "rep103_good", "rep104_good"],
)
def test_good_fixture_trees_are_clean(case):
    findings = lint_tree(FLOW_FIXTURES / case)
    assert findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in findings
    ]


PLANTED = '''\
"""Throwaway scratch module with an aliased interprocedural leak."""

from time import monotonic as ticks

from repro.core.durable import atomic_write_json


def _elapsed():
    return ticks()


def snapshot(path):
    atomic_write_json(path, {"wall": _elapsed()})
'''


def _tree(case: str, tmp_path: pathlib.Path) -> pathlib.Path:
    if case != "planted":
        return FLOW_FIXTURES / case
    planted = tmp_path / "src" / "repro" / "analysis" / "_scratch.py"
    planted.parent.mkdir(parents=True)
    planted.write_text(PLANTED)
    return tmp_path


#: (tree, every (code, path, line) a directory run reports on it)
READ_OR_RAISE_LINES = [
    # ``from time import time as ticks``, read two helpers from the writer
    ("rep101_bad", [("REP001", "src/repro/broker/timeutil.py", 11)]),
    # an unseeded default_rng() behind a helper of the serializer
    ("rep102_bad", [("REP002", "src/repro/middleware/noise.py", 7)]),
    # the builtins a public broker API let escape from its helpers
    (
        "rep103_bad",
        [
            ("REP005", "src/repro/broker/codec.py", 6),
            ("REP005", "src/repro/broker/codec.py", 12),
        ],
    ),
    # ``from time import monotonic as ticks`` under repro.analysis
    ("planted", [("REP001", "src/repro/analysis/_scratch.py", 9)]),
]


@pytest.mark.parametrize(
    "case, expected",
    READ_OR_RAISE_LINES,
    ids=[case for case, _ in READ_OR_RAISE_LINES],
)
def test_former_whole_program_cases_are_reported_at_the_read_or_raise_line(
    tmp_path, case, expected
):
    findings = lint_tree(_tree(case, tmp_path))
    assert [(f.code, f.path, f.line) for f in findings] == expected


def test_rep104_units_bug_behind_annotated_helper():
    result = analyze_paths(
        [FLOW_FIXTURES / "rep104_bad" / "src"], root=FLOW_FIXTURES / "rep104_bad"
    )
    messages = sorted(f.message for f in result.findings)
    assert any("adds s to B" in m for m in messages)
    assert any("assigns B to 't_disk'" in m for m in messages)
    assert any("multiplies two durations" in m for m in messages)


# ---------------------------------------------------------------------------
# The call graph and effect summaries over the same trees
# ---------------------------------------------------------------------------


def test_callgraph_golden_for_rep101_bad():
    edges = effects_of(FLOW_FIXTURES / "rep101_bad").callgraph.to_dict()
    assert edges["repro.broker.writer.flush"] == [
        "repro.broker.timeutil._stamp"
    ]
    assert edges["repro.broker.timeutil._stamp"] == [
        "repro.broker.timeutil._now"
    ]
    assert edges["repro.broker.timeutil._now"] == []


def test_purity_summaries_propagate_bottom_up():
    """The aliased read two calls down makes the writer ambient too."""
    analysis = effects_of(FLOW_FIXTURES / "rep101_bad").analysis
    assert analysis.effect_words("repro.broker.timeutil._now") == "ambient"
    assert analysis.effect_words("repro.broker.timeutil._stamp") == "ambient"
    assert analysis.effect_words("repro.broker.writer.flush") == "ambient+io"


def test_good_tree_functions_are_deterministic():
    analysis = effects_of(FLOW_FIXTURES / "rep101_good").analysis
    assert analysis.effect_words("repro.broker.writer._stamp") == "none"
    # The allowlisted watchdog's wall-clock read is sanctioned, so only
    # its journal write counts.
    assert (
        analysis.effect_words("repro.campaign.watchdog.journal_heartbeat")
        == "io"
    )
    for qualname, tier in analysis.tiers.items():
        assert TIER_RANK[tier] >= TIER_RANK[TIER_DETERMINISTIC], qualname


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
    findings = lint_tree(tmp_path)
    assert [(f.code, f.line) for f in findings] == [("REP001", 7)]
    result = effects_of(tmp_path)
    # _ping and _pong share one SCC, and the read reaches both
    comp = [
        c
        for c in result.callgraph.order
        if "repro.broker.loop._ping" in c
    ]
    assert comp and "repro.broker.loop._pong" in comp[0]
    assert "ambient" in result.analysis.effect_words("repro.broker.loop._pong")


def test_container_mutation_carries_taint(tmp_path):
    """`payload['ids'] = ids(jobs)` marks `payload` with the helper's
    set-iteration order, so writing the dict afterwards is an unordered
    artifact (REP203) even though the value never flows through a plain
    name assignment."""
    pkg = tmp_path / "src" / "repro" / "broker"
    pkg.mkdir(parents=True)
    (pkg / "tmod.py").write_text(
        "def ids(jobs):\n"
        "    return [job for job in set(jobs)]\n"
    )
    (pkg / "writer.py").write_text(
        "from repro.core.durable import atomic_write_json\n\n"
        "from repro.broker.tmod import ids\n\n\n"
        "def flush(path, payload, jobs):\n"
        "    payload['ids'] = ids(jobs)\n"
        "    atomic_write_json(path, payload)\n"
    )
    result = effects_of(tmp_path)
    assert codes_of(result.findings) == ["REP203"]
    (finding,) = result.findings
    assert (finding.path, finding.line) == ("src/repro/broker/writer.py", 8)


# ---------------------------------------------------------------------------
# Acceptance: a planted aliased leak in repro.analysis
# ---------------------------------------------------------------------------


def test_planted_leak_in_analysis_caught_by_plain_lint(tmp_path, repo_root):
    """The aliased clock read is a REP001 finding of the node rules alone,
    in a copy of the real package, and the only one."""
    dest = tmp_path / "src" / "repro" / "analysis"
    shutil.copytree(repo_root / "src" / "repro" / "analysis", dest)
    planted = dest / "_scratch.py"
    planted.write_text(PLANTED)

    plain = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [(f.code, f.path, f.line) for f in plain] == [
        ("REP001", "src/repro/analysis/_scratch.py", 9)
    ]
    assert "ticks() (time.monotonic)" in plain[0].message
