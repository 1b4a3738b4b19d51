"""The shared structure-aware mutator for JSON documents (ROADMAP 4(a)).

A valid document is damaged the way hand-edited or bit-rotted JSON goes
wrong — a field dropped, retyped, made non-finite, or nested one level
too deep — at any position below its root.  Every loader's property is
the same: only a ``ReproError`` escapes, and the file it read is left as
it was.
"""

import copy
import math

from hypothesis import strategies as st

#: What a retyped field turns into: every JSON type, the non-finite
#: floats ``json.loads`` accepts, integers no array can be sized by, and
#: one no float can hold.
JUNK = st.sampled_from(
    [None, True, "", "x", "12", 0, -1, 1.5, 10**20, 10**400, 1e308,
     math.nan, math.inf, -math.inf, [], {}, [1, 2, 3], {"a": 1}, [[1, 2]]]
)


def paths(node, prefix=()):
    """Every addressable position below the document root."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, *documents, mutations=3):
    """A deep copy of one of ``documents`` with 1..``mutations`` edits."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, mutations))):
        candidates = sorted(paths(doc), key=repr)
        if not candidates:
            break
        *parents, last = draw(st.sampled_from(candidates))
        holder = doc
        for key in parents:
            holder = holder[key]
        kind = draw(st.sampled_from(["drop", "retype", "nest-list", "nest-object"]))
        if kind == "drop":
            del holder[last]
        elif kind == "retype":
            holder[last] = copy.deepcopy(draw(JUNK))
        elif kind == "nest-list":
            holder[last] = [holder[last]]
        else:
            holder[last] = {"value": holder[last]}
    return doc
