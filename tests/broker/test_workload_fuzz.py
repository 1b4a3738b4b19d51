"""Structure-aware fuzz of the broker workload parser (ROADMAP 4(a)).

A valid workload document is mutated by the shared ``tests.fuzzing``
strategy anywhere in its sites, links, allocations, replicas, jobs or
stream.  Whatever comes out, ``parse_workload_document`` followed by
``GridBroker.from_document`` may only raise a ``ReproError`` (the CLI's
one ``error:`` line), and a document that does parse carries only
finite arrivals, deadlines and bandwidths.
"""

import math

from hypothesis import given, settings

from repro.broker import GridBroker
from repro.broker.jobs import parse_workload_document
from repro.errors import ReproError

from tests.fuzzing import mutated

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


@settings(max_examples=400, deadline=None)
@given(document=mutated(WITH_JOBS, WITH_STREAM))
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
