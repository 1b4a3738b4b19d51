"""BAD: public broker API over helpers that raise builtins (REP005 ×2)."""

from repro.broker.codec import _decode, _lookup


def submit(blob):
    return _decode(blob)


def route(table, key):
    return _lookup(table, key)
