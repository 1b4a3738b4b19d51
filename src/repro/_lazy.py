"""Lazy package exports (PEP 562): a package ``__init__`` imports nothing.

``__getattr__, __dir__, __all__ = lazy_exports(globals(), {leaf: names})``
keeps ``from repro.core import Profile`` working while importing
``repro.core.profile`` only when ``Profile`` is first asked for, so a
command pays for the modules it runs and nothing else.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``; ``exports`` maps each leaf module (by its absolute
    name) to the public names the package re-exports from it."""
    leaf_of = {name: leaf for leaf, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        leaf = leaf_of.get(name)
        if leaf is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(leaf), name)
        namespace[name] = value  # later lookups never reach this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(leaf_of))

    return __getattr__, __dir__, list(leaf_of)
