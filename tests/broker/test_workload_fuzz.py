"""Structure-aware fuzz of the broker workload parser (ROADMAP 4(a)).

A valid workload document is mutated by the shared ``tests.fuzzing``
strategy anywhere in its sites, links, allocations, replicas, jobs or
stream.  Whatever comes out, ``parse_workload_document`` followed by
``GridBroker.from_document`` may only raise a ``ReproError`` (the CLI's
one ``error:`` line), and a document that does parse keeps its names as
written and carries only finite arrivals, deadlines and bandwidths.
"""

import copy
import math

from hypothesis import example, given, settings

from repro.broker import GridBroker
from repro.broker.jobs import parse_workload_document
from repro.errors import ReproError

from tests.fuzzing import kept, mutated

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


def edited(document, edit):
    document = copy.deepcopy(document)
    edit(document)
    return document


def assert_names_kept(document, parsed):
    """Every name the parse returns is the one the document wrote."""
    assert kept(parsed.name, document.get("name", "broker-workload"))
    for site, raw in zip(parsed.sites, document["sites"]):
        assert all(kept(site[key], raw[key]) for key in ("name", "kind", "cluster"))
    for link, raw in zip(parsed.links, document.get("links", [])):
        assert kept(link["a"], raw["a"]) and kept(link["b"], raw["b"])
    for key, holders in parsed.replicas.items():
        assert all(map(kept, holders, document["replicas"][key]))
    for job, raw in zip(parsed.jobs, document.get("jobs", [])):
        assert kept(job.job_id, raw["id"]) and kept(job.workload, raw["workload"])
        assert kept(job.size, raw.get("size")) and kept(job.vo, raw.get("vo"))


@settings(max_examples=400, deadline=None)
@given(document=mutated(WITH_JOBS, WITH_STREAM))
# Each of these loaded at one time with the name coerced by ``str()``.
@example(document=edited(WITH_JOBS, lambda d: d.update(name=7)))
@example(document=edited(WITH_JOBS, lambda d: d["sites"][1].update(name=7)))
@example(document=edited(WITH_JOBS, lambda d: d["sites"][0].update(cluster=7)))
@example(document=edited(WITH_JOBS, lambda d: d["links"][0].update(a=7)))
@example(document=edited(WITH_JOBS, lambda d: d["replicas"].update(knn=[7])))
@example(document=edited(WITH_JOBS, lambda d: d["jobs"][0].update(id=7)))
@example(document=edited(WITH_JOBS, lambda d: d["jobs"][1].update(workload=7)))
@example(document=edited(WITH_JOBS, lambda d: d["jobs"][0].update(size=350)))
@example(document=edited(WITH_JOBS, lambda d: d["jobs"][0].update(vo=True)))
def test_only_repro_errors_escape_the_workload_parser(document):
    try:
        parsed = parse_workload_document(document)
    except ReproError:
        return
    assert_names_kept(document, parsed)
    try:
        GridBroker.from_document(parsed)
    except ReproError:
        return
    for job in parsed.jobs:
        assert math.isfinite(job.arrival)
        assert job.deadline is None or math.isfinite(job.deadline)
    for link in parsed.links:
        assert math.isfinite(link["bw"]) and math.isfinite(link["latency_s"])
