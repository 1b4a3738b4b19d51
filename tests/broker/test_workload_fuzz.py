"""Structure-aware fuzz of the broker workload parser (ROADMAP 4(a)).

A valid workload document is mutated the way hand-edited JSON goes
wrong — a field dropped, retyped, made non-finite, or nested one level
too deep — anywhere in its sites, links, allocations, replicas, jobs or
stream.  Whatever comes out, ``parse_workload_document`` followed by
``GridBroker.from_document`` may only raise a ``ReproError`` (the CLI's
one ``error:`` line), and a document that does parse carries only
finite arrivals, deadlines and bandwidths.
"""

import copy
import math

from hypothesis import given, settings, strategies as st

from repro.broker import GridBroker
from repro.broker.jobs import parse_workload_document
from repro.errors import ReproError

GRID = {
    "name": "fuzz",
    "allocations": [[1, 2], [2, 4]],
    "sites": [
        {"name": "repo", "kind": "repository",
         "cluster": "pentium-myrinet", "nodes": 8},
        {"name": "hpc", "kind": "compute",
         "cluster": "opteron-infiniband", "nodes": 16},
    ],
    "links": [{"a": "repo", "b": "hpc", "bw": 2.0e6, "latency_s": 1e-3}],
    "replicas": {"knn@350 MB": ["repo"]},
}
WITH_JOBS = dict(
    GRID,
    jobs=[
        {"id": "j0", "workload": "knn", "size": "350 MB", "arrival": 0.0,
         "deadline": 3.0, "priority": 1, "vo": "atlas", "arrival_index": 0},
        {"id": "j1", "workload": "kmeans", "arrival": 0.5},
    ],
)
WITH_STREAM = dict(
    GRID, stream={"count": 5, "seed": 3, "mix": [["kmeans", None, 1.0]]}
)

#: What a retyped field turns into: every JSON type, the non-finite
#: floats ``json.loads`` accepts, and integers no array can be sized by.
JUNK = st.sampled_from(
    [None, True, "", "x", "12", 0, -1, 1.5, 10**20, 1e308, math.nan,
     math.inf, -math.inf, [], {}, [1, 2, 3], {"a": 1}, [[1, 2]]]
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
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from([WITH_JOBS, WITH_STREAM])))
    for _ in range(draw(st.integers(1, 3))):
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


@settings(max_examples=400, deadline=None)
@given(document=mutated_documents())
def test_only_repro_errors_escape_the_workload_parser(document):
    try:
        parsed = parse_workload_document(document)
        GridBroker.from_document(parsed)
    except ReproError:
        return
    for job in parsed.jobs:
        assert math.isfinite(job.arrival)
        assert job.deadline is None or math.isfinite(job.deadline)
    for link in parsed.links:
        assert math.isfinite(link["bw"]) and math.isfinite(link["latency_s"])
