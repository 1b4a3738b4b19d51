#!/usr/bin/env python
"""Validate every committed BENCH_*.json against one shared schema.

The benchmark harnesses each write a headline-results document to the
repository root (``BENCH_broker.json``, ``BENCH_simulator.json``, ...).
Reviewers read these files, CHANGES.md cites them, and nothing checked
their shape until now — a harness edit could silently drop the key a
claim rests on.  This checker is the CI gate: every document must

- be canonical JSON (sorted keys, the ``atomic_write_json`` format),
- carry a ``kind`` tag matching its filename
  (``BENCH_simulator.json`` -> ``bench-simulator``),
- contain that kind's required keys with the right types, and
- satisfy basic sanity bounds (speedups positive, timings
  non-negative, byte-identity flags actually true).

Run:  python scripts/check_bench.py        (exit 0 clean, 1 findings)
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: kind -> {key: expected type(s)}.  ``float`` accepts int (JSON has one
#: number type); extra keys are allowed — the schema pins the floor a
#: document must not sink below, not a ceiling.
SCHEMAS: Dict[str, Dict[str, Any]] = {
    "bench-broker": {
        "jobs": int,
        "error_window": (int, float),
        "policies": dict,
    },
    "bench-parallel": {
        "byte_identical": bool,
        "campaign": str,
        "entries": int,
        "workers": int,
        "serial_s": (int, float),
        "parallel_s": (int, float),
        "speedup": (int, float),
    },
    "bench-resilience": {
        "jobs": int,
        "seeds": list,
        "campaigns": dict,
    },
    "bench-service": {
        "requests": int,
        "seeds": list,
        "scenarios": dict,
    },
    "bench-simulator": {
        "events": int,
        "seed": int,
        "reference_drain_s": (int, float),
        "optimized_drain_s": (int, float),
        "speedup": (int, float),
        "byte_identical_order": bool,
    },
}

#: Keys that, wherever they appear at top level, must satisfy a bound.
BOUNDS = {
    "speedup": lambda v: v > 0,
    "serial_s": lambda v: v >= 0,
    "parallel_s": lambda v: v >= 0,
    "reference_drain_s": lambda v: v >= 0,
    "optimized_drain_s": lambda v: v >= 0,
    "byte_identical": lambda v: v is True,
    "byte_identical_order": lambda v: v is True,
}


def check_document(path: pathlib.Path) -> List[str]:
    """All schema violations for one BENCH file (empty list = clean)."""
    problems: List[str] = []
    raw = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        return [f"{path.name}: not valid JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path.name}: top level must be an object"]

    canonical = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if raw != canonical:
        problems.append(
            f"{path.name}: not canonical JSON — rewrite through "
            "repro.core.durable.atomic_write_json"
        )

    kind = doc.get("kind")
    expected_kind = "bench-" + path.stem[len("BENCH_"):]
    if kind != expected_kind:
        problems.append(
            f"{path.name}: kind is {kind!r}, expected {expected_kind!r}"
        )
        return problems

    schema = SCHEMAS.get(kind)
    if schema is None:
        problems.append(
            f"{path.name}: kind {kind!r} has no schema — add it to "
            "scripts/check_bench.py alongside the new harness"
        )
        return problems

    for key, types in schema.items():
        if key not in doc:
            problems.append(f"{path.name}: missing required key '{key}'")
        elif not isinstance(doc[key], types) or isinstance(doc[key], bool) != (
            types is bool
        ):
            problems.append(
                f"{path.name}: key '{key}' is "
                f"{type(doc[key]).__name__}, expected "
                f"{types.__name__ if isinstance(types, type) else types}"
            )

    for key, ok in BOUNDS.items():
        if key in doc and key in schema and not ok(doc[key]):
            problems.append(
                f"{path.name}: key '{key}' = {doc[key]!r} fails its "
                "sanity bound"
            )
    return problems


def check_all(root: pathlib.Path) -> Tuple[int, List[str]]:
    """(documents checked, problems) over every BENCH_*.json in root."""
    problems: List[str] = []
    paths = sorted(root.glob("BENCH_*.json"))
    for path in paths:
        problems.extend(check_document(path))
    missing = set(SCHEMAS) - {
        "bench-" + p.stem[len("BENCH_"):] for p in paths
    }
    for kind in sorted(missing):
        problems.append(
            f"BENCH_{kind[len('bench-'):]}.json: missing — the schema "
            "lists it as a committed artifact"
        )
    return len(paths), problems


def main() -> int:
    checked, problems = check_all(REPO_ROOT)
    for problem in problems:
        print(f"check_bench: {problem}")
    if problems:
        print(
            f"check_bench: {len(problems)} problem(s) across "
            f"{checked} document(s)"
        )
        return 1
    print(f"check_bench: {checked} BENCH document(s) conform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
