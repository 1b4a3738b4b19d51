"""The summary cache and the single scan, once for all four passes.

The REP00x rules pass and the flow, effects, and perf layers share one
:class:`repro.lint.summaries.SummaryCache` and one scan loop, so their
cache contract — hit, invalidated by edit, corrupt file, version skew,
malformed entry — is one suite parametrised over the passes, and the
parse-once-cold, parse-nothing-warm guarantee is checked on the command
that runs all of them together.  What only the rules cache does — a
derived ``analysis_version``, entries shared between ``--select`` and
full runs, fix spans that survive a hit — follows.
"""

from __future__ import annotations

import ast
import gc
import json
import pathlib
import shutil
import types
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.durable import canonical_json
from repro.hotpath import paused_collector
from repro.lint import all_rules, analyze_effects, analyze_paths
from repro.lint import engine as lint_engine
from repro.lint import summaries
from repro.lint.cli import main as lint_main
from repro.lint.effects import EffectPass
from repro.lint.engine import Pass, RulesPass, scan
from repro.lint.flow import FlowPass
from repro.lint.perf import PerfPass, analyze_perf

from tests.fuzzing import mutated

FIXTURES = pathlib.Path(__file__).parent / "fixtures"



def analyze_rules(paths, *, root, cache_path, rules=None):
    """The rules pass through its cache, shaped like a ``LayerResult``."""
    rules_pass = RulesPass(rules, cache_path)
    files = scan(paths, root, [rules_pass])
    return types.SimpleNamespace(
        findings=list(rules_pass.finish()),
        files_analyzed=files,
        cache_hits=rules_pass.cache.hits,
        cache_misses=rules_pass.cache.misses,
    )


#: pass -> (entry point, fixture files making a multi-module tree, the
#: codes that tree must produce, a key every cached extract must have)
LAYERS = {
    "rules": (
        analyze_rules,
        ["rep003_bad.py", "rep003_good.py"],
        ["REP003"],
        "findings",
    ),
    "flow": (analyze_paths, "flow/rep101_bad", ["REP101"], "functions"),
    "effects": (
        analyze_effects,
        ["effects/rep204_bad.py", "effects/rep204_good.py"],
        ["REP204"],
        "functions",
    ),
    "perf": (
        analyze_perf,
        ["perf/rep301_bad.py", "perf/rep301_good.py"],
        ["REP301"],
        "functions",
    ),
}


class Layer:
    """One layer's analysis over a scratch copy of its fixture tree."""

    def __init__(self, name: str, tmp_path: pathlib.Path) -> None:
        self.analyze, fixture, self.codes, self.required_key = LAYERS[name]
        self.root = tmp_path / "tree"
        if isinstance(fixture, str):
            shutil.copytree(FIXTURES / fixture, self.root)
        else:
            self.root.mkdir()
            for relpath in fixture:
                shutil.copy(FIXTURES / relpath, self.root)
        self.cache = tmp_path / "cache.json"
        self.files = sorted(self.root.rglob("*.py"))

    def run(self):
        return self.analyze(
            [self.root], root=self.root, cache_path=self.cache
        )

    def rewrite_cache(self, edit) -> None:
        data = json.loads(self.cache.read_text())
        edit(data)
        self.cache.write_text(json.dumps(data, sort_keys=True))


@pytest.fixture(params=sorted(LAYERS))
def layer(request, tmp_path) -> Layer:
    return Layer(request.param, tmp_path)


def codes_of(result):
    return sorted({f.code for f in result.findings})


def assert_full_reextract(layer: Layer, result) -> None:
    assert result.cache_hits == 0
    assert result.cache_misses == len(layer.files)
    assert codes_of(result) == layer.codes


def test_warm_run_hits_every_module(layer):
    cold = layer.run()
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.files_analyzed == len(layer.files) > 1
    assert codes_of(cold) == layer.codes

    written = layer.cache.stat().st_mtime_ns
    warm = layer.run()
    assert warm.cache_misses == 0
    assert warm.cache_hits == len(layer.files)
    assert warm.findings == cold.findings
    # A run that changed nothing leaves the file alone.
    assert layer.cache.stat().st_mtime_ns == written


def test_a_saved_cache_is_one_line_holding_the_indented_value(
    layer, monkeypatch
):
    layer.run()
    compact = layer.cache.read_text()
    assert compact.count("\n") == 1 and compact.endswith("\n")
    # The value an indented writer (``canonical_json``, as builds before
    # the compact caches wrote them) puts in the file for the same run.
    layer.cache.unlink()
    monkeypatch.setattr(summaries, "compact_json", canonical_json)
    layer.run()
    indented = layer.cache.read_text()
    assert indented.count("\n") > 1
    assert json.loads(compact) == json.loads(indented)


def test_an_indented_cache_is_a_warm_start_left_as_it_is(layer, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(summaries, "compact_json", canonical_json)
        cold = layer.run()
    indented = layer.cache.read_bytes()
    assert indented.count(b"\n") > 1
    warm = layer.run()
    assert warm.cache_hits == len(layer.files)
    assert warm.cache_misses == 0
    assert warm.findings == cold.findings
    assert layer.cache.read_bytes() == indented


def test_source_edit_invalidates_exactly_that_entry(layer):
    layer.run()
    target = layer.files[0]
    target.write_text(target.read_text() + "\n# touched\n")
    edited = layer.run()
    assert edited.cache_misses == 1
    assert edited.cache_hits == len(layer.files) - 1
    assert codes_of(edited) == layer.codes


def test_partial_run_keeps_the_entries_it_did_not_visit(layer):
    layer.run()
    target = layer.files[0]
    target.write_text(target.read_text() + "\n# touched\n")
    partial = layer.analyze([target], root=layer.root, cache_path=layer.cache)
    assert (partial.cache_hits, partial.cache_misses) == (0, 1)
    again = layer.run()
    assert again.cache_misses == 0
    assert again.cache_hits == len(layer.files)


def test_corrupt_cache_degrades_to_full_reextract(layer):
    layer.run()
    layer.cache.write_text("{ not json")
    assert_full_reextract(layer, layer.run())
    # ... and the save repaired the file for the next run.
    assert layer.run().cache_hits == len(layer.files)


@pytest.mark.parametrize("stale", [-1, None], ids=["older", "absent"])
def test_analysis_version_skew_discards_cache(layer, stale):
    """A cache written by another extractor revision — or, ``absent``,
    by a commit whose flow layer recorded no revision at all — must
    never replay its summaries for unchanged sources."""
    layer.run()

    def edit(data):
        assert data["analysis_version"] not in (stale, None)
        if stale is None:
            del data["analysis_version"]
        else:
            data["analysis_version"] = stale

    layer.rewrite_cache(edit)
    assert_full_reextract(layer, layer.run())


def test_format_version_skew_discards_cache(layer):
    layer.run()
    layer.rewrite_cache(lambda data: data.update(format_version=999))
    assert_full_reextract(layer, layer.run())


def test_malformed_entry_is_a_miss_for_that_module_only(layer):
    cold = layer.run()

    def edit(data):
        first = sorted(data["modules"])[0]
        del data["modules"][first]["extract"][layer.required_key]

    layer.rewrite_cache(edit)
    result = layer.run()
    assert result.cache_misses == 1
    assert result.cache_hits == len(layer.files) - 1
    assert result.findings == cold.findings


def test_an_entry_of_the_wrong_shape_is_a_miss(tmp_path):
    """``classes`` of 7 once escaped as an ``AttributeError`` from
    ``PerfExtract.from_dict``; any entry ``from_dict`` cannot read is a
    miss."""
    layer = Layer("perf", tmp_path)
    cold = layer.run()

    def edit(data):
        data["modules"][sorted(data["modules"])[0]]["extract"]["classes"] = 7

    layer.rewrite_cache(edit)
    result = layer.run()
    assert (result.cache_hits, result.cache_misses) == (len(layer.files) - 1, 1)
    assert result.findings == cold.findings


#: pass -> what opens (and so reads) its cache file
OPENERS = {
    "rules": lambda path: RulesPass(None, path),
    "flow": FlowPass,
    "effects": EffectPass,
    "perf": PerfPass,
}


@pytest.fixture(scope="module")
def cold_caches(tmp_path_factory):
    caches = {}
    for name in sorted(LAYERS):
        layer = Layer(name, tmp_path_factory.mktemp(name))
        layer.run()
        caches[name] = json.loads(layer.cache.read_text())
    return caches


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_mutated_cache_loads_without_error_and_is_left_alone(
    tmp_path, cold_caches, data
):
    name = data.draw(st.sampled_from(sorted(cold_caches)))
    path = tmp_path / f"{name}-cache.json"
    path.write_text(json.dumps(data.draw(mutated(cold_caches[name])), sort_keys=True))
    before = path.read_bytes()
    OPENERS[name](path)
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# The single-scan contract
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_tree(tmp_path, monkeypatch):
    """A mini source tree plus live counters of parses and file reads."""
    tree = tmp_path / "tree"
    # rep104_bad has prediction-core modules, so REP104 (which needs
    # trees even on a warm run) is part of what gets counted.
    shutil.copytree(FIXTURES / "flow" / "rep104_bad", tree)
    for name in ("rep204_bad.py", "rep301_bad.py"):
        kind = "effects" if name.startswith("rep2") else "perf"
        shutil.copy(FIXTURES / kind / name, tree / "src" / "repro" / name)
    (tree / "src" / "repro" / "broken.py").write_text("def broken(:\n")
    files = sorted(tree.rglob("*.py"))
    counts = {"parse": 0, "read": 0}

    real_parse, real_read = ast.parse, pathlib.Path.read_text

    def counting_parse(*args, **kwargs):
        counts["parse"] += 1
        return real_parse(*args, **kwargs)

    def counting_read(self, *args, **kwargs):
        if self.suffix == ".py":
            counts["read"] += 1
        return real_read(self, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(pathlib.Path, "read_text", counting_read)
    return tree, files, counts


def test_each_file_is_read_and_parsed_at_most_once(counted_tree, capsys):
    """... and on a warm run, read once and parsed not at all."""
    tree, files, counts = counted_tree
    argv = [
        str(tree / "src"), "--root", str(tree), "--format", "json",
        "--flow", "--effects", "--perf",
    ]
    reports = []
    for temperature in ("cold", "warm"):
        counts.update(parse=0, read=0)
        assert lint_main(argv) == 1
        reports.append(json.loads(capsys.readouterr().out))
        assert counts["read"] == len(files), temperature
        if temperature == "cold":
            assert 0 < counts["parse"] <= len(files)
        else:
            # Not the rules, not REP104's unit check, not broken.py.
            assert counts["parse"] == 0
    cold, warm = reports
    assert cold == warm
    assert cold["summary"]["files_scanned"] == len(files)
    codes = {f["code"] for f in cold["findings"]}
    assert {"REP000", "REP104", "REP204", "REP301"} <= codes


def test_a_rules_only_run_lints_no_module_twice(
    counted_tree, monkeypatch, capsys
):
    """A run that enables no whole-program layer still fills and reads
    the rules cache: the second ``--select REP001`` run lints nothing."""
    tree, files, counts = counted_tree
    linted = []
    real_lint_module = lint_engine.lint_module

    def counting_lint_module(module, *args, **kwargs):
        linted.append(module.relpath)
        return real_lint_module(module, *args, **kwargs)

    monkeypatch.setattr(lint_engine, "lint_module", counting_lint_module)
    argv = [
        str(tree / "src"), "--root", str(tree), "--format", "json",
        "--select", "REP001",
    ]
    reports = []
    for temperature in ("cold", "warm"):
        linted.clear()
        counts.update(parse=0, read=0)
        lint_main(argv)
        reports.append(json.loads(capsys.readouterr().out))
        if temperature == "cold":
            assert linted
        else:
            assert linted == []
            assert counts["parse"] == 0
    assert reports[0] == reports[1]
    assert (tree / ".repro-rules-cache.json").exists()


class TreeSpy(Pass):
    """Counts, at each visit, the earlier modules' trees still alive."""

    def __init__(self, collect: bool) -> None:
        self.collect = collect
        self.trees = []
        self.alive_at_visit = []

    def visit(self, module):
        if self.collect:
            gc.collect()
        self.alive_at_visit.append(
            sum(1 for ref in self.trees if ref() is not None)
        )
        self.trees.append(weakref.ref(module.tree))


def every_pass_with(spy):
    return [spy, RulesPass(), FlowPass(None), EffectPass(None), PerfPass(None)]


def test_trees_are_not_retained_across_files(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES / "flow" / "rep101_bad", tree)
    spy = TreeSpy(collect=True)
    assert scan([tree], tree, every_pass_with(spy)) == len(spy.trees) > 1
    assert spy.alive_at_visit == [0] * len(spy.trees)


def test_trees_die_by_reference_count_alone(repo_root):
    """``repro lint`` runs with the cyclic collector paused: that costs
    nothing only if no pass ties a syntax tree into a reference cycle,
    so each module's tree is freed before the next is parsed."""
    lint_tree = repo_root / "src" / "repro" / "lint"
    spy = TreeSpy(collect=False)
    with paused_collector():
        files = scan([lint_tree], repo_root, every_pass_with(spy))
    assert files == len(spy.trees) > 20
    assert spy.alive_at_visit == [0] * len(spy.trees)


# ---------------------------------------------------------------------------
# What only the rules cache does
# ---------------------------------------------------------------------------


@pytest.fixture
def rules_layer(tmp_path) -> Layer:
    return Layer("rules", tmp_path)


def test_a_changed_linter_source_digest_forces_a_full_relint(
    rules_layer, monkeypatch
):
    """The rules cache's analysis_version is derived from the linter's
    own source, so an edited rule can never replay stale findings."""
    rules_layer.run()
    assert rules_layer.run().cache_hits == len(rules_layer.files)
    version = json.loads(rules_layer.cache.read_text())["analysis_version"]
    assert version == lint_engine.linter_digest()
    monkeypatch.setattr(lint_engine, "linter_digest", lambda: "edited-rule")
    assert_full_reextract(rules_layer, rules_layer.run())
    assert rules_layer.run().cache_hits == len(rules_layer.files)


def test_linter_digest_covers_every_linter_source_file(tmp_path, monkeypatch):
    package = tmp_path / "lint"
    shutil.copytree(pathlib.Path(lint_engine.__file__).parent, package)
    monkeypatch.setattr(lint_engine, "__file__", str(package / "engine.py"))
    before = lint_engine.linter_digest()
    for relpath in ("rules/rep003_canonical_json.py", "flow/units.py"):
        with (package / relpath).open("a") as handle:
            handle.write("# edited\n")
        after = lint_engine.linter_digest()
        assert after != before, relpath
        before = after
    monkeypatch.setattr(lint_engine.sys, "version_info", (3, 99, 0))
    assert lint_engine.linter_digest() != before


@pytest.mark.parametrize("first", ["full", "select"])
def test_select_and_full_runs_share_one_cache(rules_layer, first):
    """A miss runs every registered rule, a hit filters by code: either
    kind of run may fill the cache the other one reads."""
    root, cache = rules_layer.root, rules_layer.cache
    for target in (root / "rep005_bad.py", root / "broken.py"):
        source = FIXTURES / target.name
        target.write_text(source.read_text() if source.exists() else "def (:\n")
    files = len(list(root.rglob("*.py")))
    selected = [rule for rule in all_rules() if rule.code == "REP003"]

    def run(rules, cache_path):
        return analyze_rules(
            [root], root=root, cache_path=cache_path, rules=rules
        )

    uncached = {
        "full": lint_engine.lint_paths([root], root=root),
        "select": lint_engine.lint_paths([root], root=root, rules=selected),
    }
    assert {f.code for f in uncached["full"]} == {"REP000", "REP003", "REP005"}
    assert {f.code for f in uncached["select"]} == {"REP000", "REP003"}
    second = "select" if first == "full" else "full"
    rules_of = {"full": None, "select": selected}

    filled = run(rules_of[first], cache)
    assert (filled.cache_hits, filled.cache_misses) == (0, files)
    assert filled.findings == uncached[first]
    read = run(rules_of[second], cache)
    assert (read.cache_hits, read.cache_misses) == (files, 0)
    assert read.findings == uncached[second]


def test_fix_through_a_warm_cache_rewrites_the_same_bytes(
    tmp_path, fixtures_dir, capsys
):
    rewritten = {}
    for temperature in ("cold", "warm"):
        root = tmp_path / temperature
        root.mkdir()
        target = root / "bad.py"
        shutil.copy(fixtures_dir / "rep003_bad.py", target)
        argv = [str(root), "--root", str(root)]
        if temperature == "warm":
            assert lint_main(argv) == 1
            assert (root / ".repro-rules-cache.json").exists()
            assert "sort_keys=True" not in target.read_text()
        assert lint_main(argv + ["--fix"]) == 1
        assert "1 fixed" in capsys.readouterr().out
        rewritten[temperature] = target.read_bytes()
    assert rewritten["cold"] == rewritten["warm"]
    assert rewritten["cold"] != (fixtures_dir / "rep003_bad.py").read_bytes()


def test_unparsable_file_is_rep000_cold_and_warm(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "broken.py").write_text("def broken(:\n")
    cache = tmp_path / "cache.json"
    cold = analyze_rules([root], root=root, cache_path=cache)
    warm = analyze_rules([root], root=root, cache_path=cache)
    assert (warm.cache_hits, warm.cache_misses) == (1, 0)
    assert [f.code for f in cold.findings] == ["REP000"]
    assert warm.findings == cold.findings
    assert warm.findings == lint_engine.lint_paths([root], root=root)


def test_clear_cache_removes_all_four_files(tmp_path, fixtures_dir, capsys):
    """Every cache is ROOT/<name>, so clearing them is deleting these
    four files; the next run rebuilds all four and reports the same."""
    shutil.copy(fixtures_dir / "rep003_good.py", tmp_path / "ok.py")
    argv = [str(tmp_path), "--root", str(tmp_path), "--flow", "--effects",
            "--perf", "--format", "json"]
    assert lint_main(argv) == 0
    cold = capsys.readouterr().out
    caches = sorted(tmp_path.glob(".repro-*-cache.json"))
    assert [p.name for p in caches] == [
        ".repro-effects-cache.json",
        ".repro-flow-cache.json",
        ".repro-perf-cache.json",
        ".repro-rules-cache.json",
    ]
    for cache in caches:
        cache.unlink()
    assert lint_main(argv) == 0
    assert capsys.readouterr().out == cold
    assert sorted(tmp_path.glob(".repro-*-cache.json")) == caches
