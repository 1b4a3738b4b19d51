"""GOOD: sanctioned wall-clock read in an allowlisted module.

The campaign watchdog legitimately journals operator-facing wall
durations; it is on the REP001 allowlist, which the effect layer
shares.
"""

import time

from repro.core.durable import atomic_write_json


def journal_heartbeat(path):
    atomic_write_json(path, {"elapsed_s": time.monotonic()})
