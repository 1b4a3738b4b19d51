"""The declared hot set: ``@hot`` marks a performance-contract entry.

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
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["hot"]

_F = TypeVar("_F", bound=Callable)


def hot(func: _F) -> _F:
    """Declare ``func`` a hot-path entry; returns ``func`` unchanged."""
    return func
