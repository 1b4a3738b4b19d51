"""In-memory spans recorded from outside ``src/repro``.

The benchmark measures each layer by timing calls into its public
functions: a :class:`Tracer` swaps a public method or function for a
wrapper that records one span per call (name, start, end, the span that
caused it), and puts the original back afterwards.  Nothing under
``src/`` is edited; spans inside the program are a later change.

A span's *layer* is the part of its name before the first dot, which is
a module name under ``src/repro``.  A layer's self time is the duration
of its spans minus the part their child spans cover, so the layers of
one traced operation add up to its wall-clock time.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "AppProxy", "call"]


class Span:
    """One timed call.  ``parent`` is the span that caused it, or None."""

    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._local.stack = self._main_stack
        self._patched: List[tuple] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span recorded around every call."""
        spans = self.spans
        clock = time.perf_counter
        get_stack = self._stack
        main_stack = self._main_stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = get_stack()
            if stack:
                parent = stack[-1]
            else:
                # First span of a helper thread (the campaign watchdog
                # runs each entry on one while the main thread waits):
                # the open span of the main thread caused it.
                parent = main_stack[-1] if main_stack else None
            span = Span(name, clock(), parent)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing wrappers around the program's public entry points --

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` until :meth:`unpatch`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_method(self, owner: type, attr: str, name: str) -> None:
        """Trace ``owner.attr`` (plain, class or static method)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self.replace(owner, attr, new)

    def patch_function(self, fn: Callable[..., Any], name: str) -> None:
        """Trace a module-level function under every name it is bound to.

        ``from m import f`` copies the binding, so the wrapper replaces
        ``f`` in each loaded ``repro`` module that holds it.
        """
        wrapped = self.wrap(name, fn)
        found = False
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapped)
                    found = True
        if not found:
            raise LookupError(f"{name}: function is bound in no repro module")

    def patch_subclass_methods(self, base: type, attr: str, name: str) -> None:
        """Trace ``attr`` on ``base`` and every loaded subclass defining it."""
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get(attr)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                self.patch_method(cls, attr, name)

    def unpatch(self) -> None:
        """Put every original back, last patch first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading the trace --------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self time and span count."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.layer, {"self_s": 0.0, "spans": 0})
            row["self_s"] += span.self_s
            row["spans"] += 1
        return dict(sorted(table.items()))

    def root_wall_s(self) -> float:
        """Summed duration of the spans nothing else caused."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def write(self, path: pathlib.Path) -> None:
        """Dump the spans as JSON: one row per span, parents by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        document = {
            "workload": self.workload,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [
                    s.name,
                    s.start - origin,
                    s.end - origin,
                    index[id(s.parent)] if s.parent is not None else None,
                ]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


def call(
    tracer: Optional[Tracer], name: str, fn: Callable[..., Any],
    *args: Any, **kwargs: Any,
) -> Any:
    """Call ``fn`` under a span when tracing, plainly when ``tracer`` is None.

    For the calls the benchmark itself makes into a layer.
    """
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)


class AppProxy:
    """Delegates to a ``GeneralizedReduction``, timing its kernels.

    ``process_chunk`` is the application kernel; ``merge_local``,
    ``combine`` and ``update`` are the reduction steps.  Everything else
    (``name``, ``begin``, ``result``, class attributes) passes through.
    """

    def __init__(self, app: Any, tracer: Tracer) -> None:
        self._app = app
        self.process_chunk = tracer.wrap("apps.process_chunk", app.process_chunk)
        self.merge_local = tracer.wrap("apps.reduce", app.merge_local)
        self.combine = tracer.wrap("apps.reduce", app.combine)
        self.update = tracer.wrap("apps.reduce", app.update)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._app, attr)
