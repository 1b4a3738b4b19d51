"""GOOD: the helpers' errors are ReproErrors, so they may cross the
public boundary; REP005 checks each raise site where it is written.
"""

from repro.broker.codec import _decode, _lookup


def submit(blob):
    return _decode(blob)


def route(table, key):
    return _lookup(table, key)
