"""Entry point of the benchmark command in ``BENCHMARK.json``.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  Puts the repository root (for ``bench``) and
``src`` (for ``repro``) on the path, then hands over to ``bench.cli``.
"""

import sys
import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    from bench.cli import main

    sys.exit(main(started=STARTED))
