"""REP005: library errors come from the ReproError hierarchy.

Callers embedding the framework catch :class:`repro.errors.ReproError`
once (the CLI does exactly this to turn failures into exit code 1).  A
bare ``raise ValueError(...)`` in library code escapes that contract:
it crashes embedders with a traceback instead of a classified error,
and it cannot carry the remedy text the durable layer's errors do.

``NotImplementedError`` is exempt — it is Python's idiom for abstract
interface methods (e.g. ``api.merge_local``) and signals a missing
override, not a runtime failure.  Bare re-raises (``raise``) are exempt
too, and so is ``repro/_lazy.py``: the module ``__getattr__`` protocol
(PEP 562) *requires* ``AttributeError`` for an unknown name.

Bad::

    raise ValueError("jobs need a non-empty id")      # REP005
    raise RuntimeError                                # REP005

Good::

    raise ConfigurationError("jobs need a non-empty id")
    raise NotImplementedError("subclasses override")  # abstract method
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, dotted_name, register

BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "StopAsyncIteration",
        "StopIteration",
        "SystemError",
        "TypeError",
        "UnicodeError",
        "ValueError",
        "ZeroDivisionError",
    }
)


@register
class ReproErrorsRule(Rule):
    code = "REP005"
    name = "repro-errors"
    summary = "raise ReproError subclasses, not bare builtin exceptions"
    rationale = (
        "Embedders catch ReproError once; a builtin raise escapes the "
        "error model and loses the classified remedy text."
    )
    node_types = (ast.Raise,)
    allowlist = ("repro/_lazy.py",)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Raise)
        exc = node.exc
        if exc is None:  # bare re-raise inside an except block
            return
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = dotted_name(target)
        if name in BUILTIN_EXCEPTIONS:
            yield self.finding(
                ctx,
                node,
                f"raise of builtin {name} escapes the ReproError "
                "hierarchy; use (or add) a ReproError subclass in "
                "repro/errors.py or the owning branch module",
            )
