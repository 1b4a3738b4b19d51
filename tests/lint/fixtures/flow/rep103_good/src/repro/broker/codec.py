"""GOOD (helper): the same checks as rep103_bad, raising ReproErrors."""

from repro.errors import UsageError


def _decode(blob):
    if not blob:
        raise UsageError("empty blob")
    return blob


def _lookup(table, key):
    if key not in table:
        raise UsageError(f"no entry {key!r}")
    return table[key]
