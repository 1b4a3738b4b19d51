"""``PYTHONPATH=src python -m bench`` — the same command as ``bench/run.py``."""

import sys
import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    from bench.cli import main

    sys.exit(main(started=STARTED))
