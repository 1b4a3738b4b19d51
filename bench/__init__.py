"""The repository benchmark: five workloads, wall-clock end to end, per layer.

Run it from the repository root::

    python3 bench/run.py --workload figure_suite --seed 1 --seconds 15 --trace 0
    PYTHONPATH=src python -m bench --all --seed 1 --out bench/out/a.json

``BENCHMARK.json`` names the workloads, the metrics and their bounds;
``bench/README.md`` says why each exists and how they interact.
"""

import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
