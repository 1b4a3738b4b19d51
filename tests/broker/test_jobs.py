"""Broker jobs and workload-document parsing."""

import copy
import math

import pytest

from repro.broker.jobs import (
    BrokerJob,
    load_workload_document,
    parse_workload_document,
    sorted_jobs,
)
from repro.simgrid.errors import ConfigurationError

VALID_DOC = {
    "name": "demo",
    "allocations": [[1, 2]],
    "sites": [
        {
            "name": "repo",
            "kind": "repository",
            "cluster": "pentium-myrinet",
            "nodes": 8,
        },
        {
            "name": "hpc",
            "kind": "compute",
            "cluster": "opteron-infiniband",
            "nodes": 8,
        },
    ],
    "links": [{"a": "repo", "b": "hpc", "bw": 1.0e6}],
    "jobs": [{"id": "j0", "workload": "knn", "size": "350 MB"}],
}


class TestBrokerJob:
    def test_defaults(self):
        job = BrokerJob(job_id="j0", workload="knn")
        assert job.arrival == 0.0
        assert job.deadline is None
        assert job.priority == 0
        assert job.dataset_key == "knn"

    def test_dataset_key_includes_size(self):
        job = BrokerJob(job_id="j0", workload="knn", size="350 MB")
        assert job.dataset_key == "knn@350 MB"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BrokerJob(job_id="", workload="knn")
        with pytest.raises(ConfigurationError):
            BrokerJob(job_id="j0", workload="knn", arrival=-1.0)
        with pytest.raises(ConfigurationError):
            BrokerJob(job_id="j0", workload="knn", arrival=1.0, deadline=0.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"arrival": math.nan},
            {"arrival": math.inf},
            {"deadline": math.nan},
            {"deadline": math.inf},
        ],
    )
    def test_non_finite_times_are_rejected(self, fields):
        # NaN passes ``arrival < 0`` and ``deadline <= arrival`` alike.
        with pytest.raises(ConfigurationError, match="finite"):
            BrokerJob(job_id="j0", workload="knn", **fields)

    def test_sorted_jobs_orders_by_arrival_then_id(self):
        jobs = [
            BrokerJob(job_id="b", workload="knn", arrival=1.0),
            BrokerJob(job_id="a", workload="knn", arrival=1.0),
            BrokerJob(job_id="c", workload="knn", arrival=0.5),
        ]
        assert [j.job_id for j in sorted_jobs(jobs)] == ["c", "a", "b"]


class TestParseDocument:
    def test_valid_document(self):
        doc = parse_workload_document(VALID_DOC)
        assert doc.name == "demo"
        assert doc.allocations == [(1, 2)]
        assert doc.jobs[0].dataset_key == "knn@350 MB"
        topology = doc.build_topology()
        assert {s.name for s in topology.sites()} == {"repo", "hpc"}

    def test_site_requires_fields(self):
        doc = dict(VALID_DOC, sites=[{"name": "x", "kind": "compute"}])
        with pytest.raises(ConfigurationError, match="cluster"):
            parse_workload_document(doc)

    def test_unknown_site_kind(self):
        bad = dict(
            VALID_DOC,
            sites=[
                {"name": "x", "kind": "gateway", "cluster": "pentium-myrinet"}
            ],
        )
        with pytest.raises(ConfigurationError, match="unknown kind"):
            parse_workload_document(bad)

    def test_unknown_cluster_fails_at_build(self):
        doc = parse_workload_document(
            dict(
                VALID_DOC,
                sites=[
                    {"name": "x", "kind": "compute", "cluster": "cray"},
                    VALID_DOC["sites"][0],
                ],
            )
        )
        with pytest.raises(ConfigurationError, match="unknown cluster"):
            doc.build_topology()

    def test_duplicate_job_ids(self):
        bad = dict(
            VALID_DOC,
            jobs=[
                {"id": "j0", "workload": "knn"},
                {"id": "j0", "workload": "kmeans"},
            ],
        )
        with pytest.raises(ConfigurationError, match="duplicate job id"):
            parse_workload_document(bad)

    def test_needs_jobs_or_stream(self):
        bad = {k: v for k, v in VALID_DOC.items() if k != "jobs"}
        with pytest.raises(ConfigurationError, match="either 'jobs' or"):
            parse_workload_document(bad)

    def test_jobs_and_stream_are_exclusive(self):
        bad = dict(VALID_DOC, stream={"count": 5})
        with pytest.raises(ConfigurationError, match="not both"):
            parse_workload_document(bad)

    def test_missing_sites(self):
        with pytest.raises(ConfigurationError, match="'sites'"):
            parse_workload_document({"jobs": []})

    @pytest.mark.parametrize(
        "mutate,names",
        [
            (lambda d: d["jobs"][0].pop("id"), "job: requires key 'id'"),
            (lambda d: d["jobs"][0].update(arrival="soon"),
             "job 'j0': 'arrival'"),
            (lambda d: d["jobs"][0].update(priority="high"),
             "job 'j0': 'priority'"),
            (lambda d: d["jobs"][0].update(priority=1.5),
             "job 'j0': 'priority'"),
            (lambda d: d["jobs"][0].update(arrival=math.nan),
             "job 'j0': 'arrival'"),
            (lambda d: d["jobs"][0].update(deadline=math.nan),
             "job 'j0': 'deadline'"),
            (lambda d: d["jobs"][0].update(deadline=math.inf),
             "job 'j0': 'deadline'"),
            (lambda d: d.update(jobs=[[1, 2]]), r"jobs\[0\]"),
            (lambda d: d.update(jobs="j0"), "'jobs' must be a list"),
            (lambda d: d["sites"][0].update(nodes="many"),
             "site 'repo': 'nodes'"),
            (lambda d: d.update(sites=["repo"]), r"sites\[0\]"),
            (lambda d: d.update(allocations=[[1, 2, 3]]),
             r"allocations\[0\]"),
            (lambda d: d.update(allocations=[[1, "2"]]),
             r"allocations\[0\]"),
            (lambda d: d.update(allocations=7), "'allocations'"),
            (lambda d: d["links"][0].pop("bw"), "link repo~hpc: requires key 'bw'"),
            (lambda d: d["links"][0].update(bw=math.nan),
             "link repo~hpc: 'bw'"),
            (lambda d: d["links"][0].update(latency_s="slow"),
             "link repo~hpc: 'latency_s'"),
            (lambda d: d.update(replicas=["x"]), "'replicas'"),
            (lambda d: d.update(replicas={"knn": "repo"}),
             r"replicas\['knn'\]"),
            (lambda d: (d.pop("jobs"), d.update(stream=[1])), "'stream'"),
        ],
    )
    def test_malformed_entries_name_the_entry_and_field(self, mutate, names):
        doc = copy.deepcopy(VALID_DOC)
        mutate(doc)
        with pytest.raises(ConfigurationError, match=names):
            parse_workload_document(doc)

    def test_null_optional_job_fields_take_their_defaults(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["jobs"][0].update(
            arrival=None, deadline=None, priority=None, size=None
        )
        (job,) = parse_workload_document(doc).jobs
        assert (job.arrival, job.deadline, job.priority, job.size) == (
            0.0, None, 0, None
        )


class TestLoadDocument:
    def test_load_from_file(self, tmp_path):
        import json

        path = tmp_path / "workload.json"
        path.write_text(json.dumps(VALID_DOC))
        doc = load_workload_document(path)
        assert doc.name == "demo"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no broker workload"):
            load_workload_document(tmp_path / "nope.json")
