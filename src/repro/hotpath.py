"""What a hot path declares and what it may switch off.

``@hot`` is a scope declaration for the performance-contract rules
REP301-REP304 (``repro.lint.perf``, DESIGN.md §18).  The static
analyzer reads it from the decorator syntactically (it resolves
``@hot`` through the import table, so aliasing does not hide a
declaration) and gates the rules on the call-graph closure of the
declared set.  What is actually hot is measured, not declared: the
benchmark's ``--trace 1`` run times each layer.

``hot`` is an identity decorator: it returns the function object
unchanged, so decorated functions keep their identity (and stay
picklable) and pay zero per-call overhead.

:func:`paused_collector` is the pause of CPython's cyclic garbage
collector that a run building a large live set of acyclic objects
takes: the broker's event loop and one ``repro lint`` run.  The module
is stdlib-only, so the linter imports it without the numeric stack.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Callable, Iterator, TypeVar

__all__ = ["hot", "paused_collector"]

_F = TypeVar("_F", bound=Callable)


def hot(func: _F) -> _F:
    """Declare ``func`` a hot-path entry; returns ``func`` unchanged."""
    return func


@contextlib.contextmanager
def paused_collector() -> Iterator[None]:
    """No automatic cyclic collection inside the block.

    Every allocation-heavy pass re-scans the objects that survive it, so
    a run whose live set grows (report rows, decoded cache entries,
    syntax trees) pays for collections that find next to nothing when
    its objects hold no reference cycles: reference counting frees
    them.  The caller's collector state is restored on the way out,
    whether the block returns or raises; a block entered with the
    collector already off leaves it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
