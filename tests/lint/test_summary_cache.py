"""The summary cache and the single scan, once for all three layers.

Flow, effects, and perf share one :class:`repro.lint.summaries.SummaryCache`
and one scan loop, so their cache contract — hit, invalidated by edit,
corrupt file, version skew, malformed entry — is one suite parametrised
over the layers, and the single-parse guarantee is checked on the
command that runs all of them together.
"""

from __future__ import annotations

import ast
import gc
import json
import pathlib
import shutil
import weakref

import pytest

from repro.lint import analyze_effects, analyze_paths
from repro.lint.cli import main as lint_main
from repro.lint.effects import EffectPass
from repro.lint.engine import Pass, RulesPass, scan
from repro.lint.flow import FlowPass
from repro.lint.perf import PerfPass, analyze_perf

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: layer -> (entry point, fixture files making a multi-module tree,
#: the codes that tree must produce)
LAYERS = {
    "flow": (analyze_paths, "flow/rep101_bad", ["REP101"]),
    "effects": (
        analyze_effects,
        ["effects/rep204_bad.py", "effects/rep204_good.py"],
        ["REP204"],
    ),
    "perf": (
        analyze_perf,
        ["perf/rep301_bad.py", "perf/rep301_good.py"],
        ["REP301"],
    ),
}


class Layer:
    """One layer's analysis over a scratch copy of its fixture tree."""

    def __init__(self, name: str, tmp_path: pathlib.Path) -> None:
        self.analyze, fixture, self.codes = LAYERS[name]
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
        assert data["analysis_version"] >= 1
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
        del data["modules"][first]["extract"]["functions"]

    layer.rewrite_cache(edit)
    result = layer.run()
    assert result.cache_misses == 1
    assert result.cache_hits == len(layer.files) - 1
    assert result.findings == cold.findings


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
        assert 0 < counts["parse"] <= len(files), temperature
    cold, warm = reports
    assert cold == warm
    assert cold["summary"]["files_scanned"] == len(files)
    codes = {f["code"] for f in cold["findings"]}
    assert {"REP000", "REP104", "REP204", "REP301"} <= codes


def test_trees_are_not_retained_across_files(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES / "flow" / "rep101_bad", tree)

    class TreeSpy(Pass):
        def __init__(self):
            self.trees = []
            self.alive_at_visit = []

        def visit(self, module):
            gc.collect()
            self.alive_at_visit.append(
                sum(1 for ref in self.trees if ref() is not None)
            )
            self.trees.append(weakref.ref(module.tree))

    spy = TreeSpy()
    passes = [spy, RulesPass(), FlowPass(None), EffectPass(None), PerfPass(None)]
    assert scan([tree], tree, passes) == len(spy.trees) > 1
    assert spy.alive_at_visit == [0] * len(spy.trees)
