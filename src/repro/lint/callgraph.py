"""Project call graph over extracted summaries, with SCC condensation.

Shared by the effect and perf layers, whose summaries both carry
``calls`` edges as (callee, line) and ``arg_flows``.  Nodes are canonical
function qualnames that have a summary (project functions); edges point
caller → callee and only edges whose callee is itself a project function
are kept — external calls stay in the summaries as atoms but do not
shape the propagation order.

Summaries are propagated bottom-up: callees before callers.  Mutual
recursion makes that impossible per-function, so the graph is condensed
into strongly connected components first (iterative Tarjan — the lint
tree is deep enough that a recursive formulation would be fragile) and
components are processed in reverse topological order, iterating each
component's members to a local fixpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

__all__ = ["CallGraph", "build_callgraph", "slot_params"]


@dataclasses.dataclass
class CallGraph:
    """Edges between project functions plus the bottom-up SCC order."""

    #: caller qualname → sorted callee qualnames (project-internal only)
    edges: Dict[str, Tuple[str, ...]]
    #: strongly connected components, in reverse topological order
    #: (every component's project callees appear in earlier components
    #: or inside itself)
    order: Tuple[Tuple[str, ...], ...]
    #: every project function's summary, and the relpath defining it
    functions: Dict[str, Any] = dataclasses.field(default_factory=dict)
    modules: Dict[str, str] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, List[str]]:
        return {caller: list(callees) for caller, callees in sorted(self.edges.items())}

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Project functions reachable from ``roots`` (roots included);
        roots the graph does not know are ignored."""
        seen: Set[str] = set()
        work = [r for r in roots if r in self.edges]
        while work:
            node = work.pop()
            if node in seen:
                continue
            seen.add(node)
            work.extend(c for c in self.edges[node] if c not in seen)
        return seen


def build_callgraph(extracts: Sequence[Any]) -> CallGraph:
    """Graph over any layer's extracts: each needs ``functions``, a map
    of qualname to a summary carrying ``calls`` and ``arg_flows``."""
    functions: Dict[str, Any] = {}
    modules: Dict[str, str] = {}
    for extract in extracts:
        for qualname, summary in extract.functions.items():
            functions[qualname] = summary
            modules[qualname] = extract.relpath

    edges: Dict[str, Set[str]] = {name: set() for name in sorted(functions)}
    for qualname, summary in functions.items():
        for callee, _line in summary.calls:
            if callee in functions:
                edges[qualname].add(callee)
        for callee, _line, _pos, _kw in summary.arg_flows:
            if callee in functions:
                edges[qualname].add(callee)

    frozen = {caller: tuple(sorted(callees)) for caller, callees in edges.items()}
    return CallGraph(
        edges=frozen,
        order=_condense(frozen),
        functions=functions,
        modules=modules,
    )


def _condense(
    edges: Dict[str, Tuple[str, ...]],
) -> Tuple[Tuple[str, ...], ...]:
    """Iterative Tarjan SCC; emission order is reverse-topological.

    Tarjan pops each SCC only after all components reachable from it
    have been emitted, which is exactly the callees-first order the
    propagation pass needs.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Tuple[str, ...]] = []
    counter = 0

    for root in sorted(edges):
        if root in index:
            continue
        # Explicit DFS stack: (node, iterator position over callees).
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            callees = edges.get(node, ())
            while pos < len(callees):
                callee = callees[pos]
                pos += 1
                if callee not in index:
                    work[-1] = (node, pos)
                    work.append((callee, 0))
                    advanced = True
                    break
                if callee in on_stack:
                    lowlink[node] = min(lowlink[node], index[callee])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return tuple(components)


def slot_params(
    callee: Any,
    pos_atoms: Sequence[Tuple[str, ...]],
    kw_atoms: Mapping[str, Tuple[str, ...]],
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Map call-site argument atoms onto the callee's formals.

    ``callee`` is a summary carrying ``params`` and ``is_method``; the
    result pairs each formal that a positional or keyword argument
    lands on with that argument's atoms.
    """
    params = list(callee.params)
    if callee.is_method and params and params[0] in ("self", "cls"):
        params = params[1:]
    slots = [
        (params[i], atoms)
        for i, atoms in enumerate(pos_atoms)
        if i < len(params)
    ]
    slots.extend(
        (name, atoms) for name, atoms in kw_atoms.items() if name in params
    )
    return slots
