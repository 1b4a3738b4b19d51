"""BAD: an aliased wall-clock read, laundered through two helpers.

``ticks`` resolves to ``time.time``, so REP001 reports the read here,
where it is written, whatever ``flush`` later does with the value.
"""

from time import time as ticks


def _now():
    return ticks()


def _stamp():
    return _now()
