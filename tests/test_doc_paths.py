"""Every backticked ``*.py`` path in DESIGN.md, README.md and
``docs/*.md`` exists.

A path resolves from the repository root, from ``src/`` (such as
``repro/cli.py``), or from ``src/repro/`` for package-relative paths
such as ``service/http.py``; a bare filename may match anywhere in the
tree.  Fenced code blocks are skipped, and backtick spans are paired
within a paragraph, as Markdown pairs them.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
DOCS = ["DESIGN.md", "README.md",
        *sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("docs/*.md"))]

FENCE = re.compile(r"^\s*```.*?^\s*```", re.MULTILINE | re.DOTALL)
PARAGRAPH = re.compile(r"\n\s*\n")
SPAN = re.compile(r"`([^`]+)`")
PY_PATH = re.compile(r"[\w./-]*\w\.py\b")


def backticked_py_paths(text):
    paths = set()
    for paragraph in PARAGRAPH.split(FENCE.sub("", text)):
        for span in SPAN.findall(paragraph):
            paths.update(PY_PATH.findall(span))
    return paths


def tree_filenames():
    return {
        path.name
        for path in ROOT.rglob("*.py")
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    }


def test_the_scanner_reads_spans_and_skips_fences():
    text = (
        "See `service/http.py::parse_head` and\n`python3 bench/run.py --seed 1`.\n"
        "\n```\n`fenced.py`\n```\n"
    )
    assert backticked_py_paths(text) == {"service/http.py", "bench/run.py"}


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_py_path_exists(doc):
    names = tree_filenames()
    missing = sorted(
        path
        for path in backticked_py_paths((ROOT / doc).read_text(encoding="utf-8"))
        if not any((root / path).is_file() for root in SOURCE_ROOTS)
        and not ("/" not in path and path in names)
    )
    assert missing == [], f"{doc} names files that do not exist: {missing}"
