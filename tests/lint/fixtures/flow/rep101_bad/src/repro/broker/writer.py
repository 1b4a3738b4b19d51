"""Serializes the laundered clock value (REP001 fires at the read)."""

from repro.broker.timeutil import _stamp
from repro.core.durable import atomic_write_json


def flush(path):
    record = {"written_at": _stamp()}
    atomic_write_json(path, record)
