"""--fix for REP003: produces the canonical form, and is idempotent."""

from __future__ import annotations

import shutil

from repro.lint import apply_fixes, lint_paths, lint_source


def stage(tmp_path, fixtures_dir):
    target = tmp_path / "src" / "repro" / "encode.py"
    target.parent.mkdir(parents=True)
    shutil.copy(fixtures_dir / "rep003_bad.py", target)
    return target


def test_fix_inserts_sort_keys_and_lints_clean(tmp_path, fixtures_dir):
    target = stage(tmp_path, fixtures_dir)
    findings = lint_paths([target], root=tmp_path)
    fixable = [f for f in findings if f.fixable]
    assert len(fixable) == 1
    applied = apply_fixes(findings, tmp_path)
    assert applied == {"src/repro/encode.py": 1}

    rewritten = target.read_text()
    assert "json.dumps(payload, indent=2, sort_keys=True)" in rewritten
    # The explicit sort_keys=False call is NOT auto-rewritten.
    assert "sort_keys=False" in rewritten

    after = lint_paths([target], root=tmp_path)
    assert [f for f in after if f.fixable] == []


def test_fix_is_idempotent(tmp_path, fixtures_dir):
    target = stage(tmp_path, fixtures_dir)
    apply_fixes(lint_paths([target], root=tmp_path), tmp_path)
    first_pass = target.read_bytes()
    # Second run: no fixable findings remain, file bytes untouched.
    applied = apply_fixes(lint_paths([target], root=tmp_path), tmp_path)
    assert applied == {}
    assert target.read_bytes() == first_pass


def test_fix_preserves_surrounding_code(tmp_path, fixtures_dir):
    target = stage(tmp_path, fixtures_dir)
    before = target.read_text()
    apply_fixes(lint_paths([target], root=tmp_path), tmp_path)
    after = target.read_text()
    # Only the one call changed; everything else is byte-identical.
    diffs = [
        (a, b)
        for a, b in zip(before.splitlines(), after.splitlines())
        if a != b
    ]
    assert diffs == [
        (
            "    text = json.dumps(payload, indent=2)",
            "    text = json.dumps(payload, indent=2, sort_keys=True)",
        )
    ]


def test_fix_handles_empty_and_trailing_comma_calls():
    source = (
        "import json\n"
        "a = json.dumps({})\n"
        "b = json.dumps(\n"
        "    {'k': 1},\n"
        ")\n"
    )
    findings = lint_source(source, "src/repro/x.py")
    assert all(f.fixable for f in findings) and len(findings) == 2
    from repro.lint.fixes import _apply_to_source

    fixed = _apply_to_source(
        source, [f.fix for f in findings], "src/repro/x.py"
    )
    assert "json.dumps({}, sort_keys=True)" in fixed
    assert "{'k': 1}, sort_keys=True)" in fixed
    assert lint_source(fixed, "src/repro/x.py") == []


def test_fix_then_whole_program_passes_see_the_rewritten_text(
    tmp_path, capsys
):
    """One scan hands every pass the same text, so after ``--fix`` rewrote
    a file the run must scan again: the REP104 finding below sits on the
    very line the REP003 fix edits, and its snippet is baseline identity."""
    import json

    from repro.lint.cli import main as lint_main

    target = tmp_path / "src" / "repro" / "core" / "models.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import json\n\n\n"
        "def stage_time(base_s, chunk_bytes, meta):\n"
        "    return base_s + len(json.dumps(meta)) * chunk_bytes\n"
    )
    argv = [
        str(tmp_path / "src"), "--root", str(tmp_path), "--flow",
        "--format", "json",
    ]
    assert lint_main(argv + ["--fix"]) == 1
    fixing = json.loads(capsys.readouterr().out)
    assert "sort_keys=True" in target.read_text()
    assert lint_main(argv) == 1
    plain = json.loads(capsys.readouterr().out)

    assert fixing["summary"]["fixed"] == 1
    assert fixing["findings"] == plain["findings"]
    (finding,) = plain["findings"]
    assert finding["code"] == "REP104"
    assert "sort_keys=True" in finding["snippet"]
