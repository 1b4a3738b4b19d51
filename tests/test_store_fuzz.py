"""Structure-aware fuzz of the loaders of files people write or the
framework stores (ROADMAP 4(a)).

Each document is damaged by the shared ``tests.fuzzing`` mutator, in
every format a reader still accepts: campaign journals 1 (one
document), 2 and 3 (JSON lines), trace artifacts 1 and 2, campaign
manifests, fault scenarios of both scopes, profiles, the ``stream``
section of broker workload documents, trace specs, and ``.gwf`` traces
(their lines and fields as nested lists).
Loading may only raise a ``ReproError``, and never touches the file:
the bytes after a load, failed or not, are the bytes before it.  A load
that succeeds keeps every string and boolean field as written; the
``@example``s are documents that once loaded with such a field coerced
by ``str()``, ``int()``, ``float()`` or ``bool()``.  A
path the operating system will not read as text (a directory, bytes
that are not UTF-8) is refused by every loader the same way.
"""

import copy
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis.results_io import load_result
from repro.broker.jobs import load_workload_document
from repro.campaign import CampaignJournal
from repro.campaign.manifest import load_manifest
from repro.core.durable import canonical_json
from repro.core.store import load_profile, profile_to_dict
from repro.errors import ReproError
from repro.faults.scenario import load_grid_scenario, load_scenario
from repro.workloads.traces import TraceWorkload, make_preset
from repro.workloads.traces import TRACE_PRESETS, TraceSpec
from repro.workloads.traces.generate import StreamSpec, generate_stream
from repro.workloads.traces.gwf import parse_gwf, trace_to_gwf

from tests.broker.test_workload_fuzz import GRID
from tests.campaign.conftest import make_manifest
from tests.campaign.test_journal import GOLDENS as JOURNAL_GOLDENS, record
from tests.core.conftest import make_profile
from tests.fuzzing import kept, mutated

TRACE_GOLDENS = pathlib.Path(__file__).parent / "workloads" / "goldens"
MANIFEST = make_manifest()
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def lines_of(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def edited(document, edit):
    document = copy.deepcopy(document)
    edit(document)
    return document


def journal_v3():
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "journal_v3.jsonl"
        journal = CampaignJournal(path)
        journal.initialize(MANIFEST.name, MANIFEST.fingerprint())
        for entry_id in ("fig02", "fig03"):
            journal.commit(record(entry_id, rows=1))
        journal.commit(record("fig04", status="timed-out", attempts=2))
        journal.close()
        return lines_of(path)


JOURNALS = {
    1: json.loads((JOURNAL_GOLDENS / "journal_v1.json").read_text()),
    2: lines_of(JOURNAL_GOLDENS / "journal_v2.jsonl"),
    3: journal_v3(),
}


def loads_or_refuses(path, load):
    """``load(path)``; True if it loaded.  Only a ReproError may escape,
    and the file is untouched either way."""
    before = path.read_bytes()
    try:
        load(path)
        loaded = True
    except ReproError:
        loaded = False
    assert path.read_bytes() == before
    return loaded


@FUZZ
@given(
    case=st.sampled_from(sorted(JOURNALS)).flatmap(
        lambda version: st.tuples(st.just(version), mutated(JOURNALS[version]))
    )
)
@example(case=(3, edited(JOURNALS[3], lambda lines: lines[1].update(entry_id=7))))
@example(case=(3, edited(JOURNALS[3], lambda lines: lines[0].update(campaign=7))))
def test_only_repro_errors_escape_a_journal_load(tmp_path, case):
    version, document = case
    if version == 1:
        text = canonical_json(document)
        header, raws = document, document.get("entries")
    else:
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in document)
        header, raws = document[0], document[1:]
    path = tmp_path / "journal.jsonl"
    path.write_text(text)

    def load(path):
        journal = CampaignJournal(path)
        records = journal.load(
            expected_fingerprint=MANIFEST.fingerprint(),
            legacy_fingerprint=MANIFEST.fingerprint(legacy=True),
        )
        assert kept(journal.campaign, header["campaign"])
        # A final line that is not an object is a torn commit, dropped.
        for entry, raw in zip(records.values(), raws):
            assert entry.attempts >= 1 and math.isfinite(entry.elapsed_s)
            assert all(isinstance(v, str) for v in entry.violations)
            assert kept(entry.entry_id, raw["entry_id"])
            assert kept(entry.status, raw["status"])
            assert all(map(kept, entry.violations, raw["violations"]))

    loads_or_refuses(path, load)


def trace_documents():
    v2 = TraceWorkload.from_spec(
        make_preset("gwa-mixed", 6, seed=3), baselines=lambda w, s: 2.0
    ).to_dict()
    v1 = json.loads((TRACE_GOLDENS / "trace_v1.json").read_text())
    return v1, v2


TRACE_V1, TRACE_V2 = trace_documents()


def unsealed(**fields):
    """The version-2 artifact with ``fields`` replaced and no fingerprint
    (one is only checked when present)."""
    document = dict(TRACE_V2, **fields)
    del document["fingerprint"]
    return document


def load_checked_trace(path):
    trace = TraceWorkload.load(path)
    doc = json.loads(path.read_text())
    assert kept(trace.name, doc.get("name", ""))
    assert kept(trace.source, doc.get("source", "generated"))
    for job, raw in zip(trace.jobs, doc["jobs"]):
        assert kept(job.job_id, raw["id"]) and kept(job.workload, raw["workload"])
        assert kept(job.size, raw.get("size")) and kept(job.vo, raw.get("vo"))


@FUZZ
@given(document=mutated(TRACE_V1, TRACE_V2))
@example(document=unsealed(name=None))
@example(document=unsealed(source=7))
@example(
    document=unsealed(jobs=[dict(TRACE_V2["jobs"][0], id=7), *TRACE_V2["jobs"][1:]])
)
def test_only_repro_errors_escape_a_trace_artifact_load(tmp_path, document):
    path = tmp_path / "trace.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_trace)


MANIFEST_DOCUMENT = {
    "name": "nightly",
    "default_deadline_s": 120.0,
    "metadata": {"owner": "ci", "tags": ["fast"]},
    "entries": [
        {"id": "fig02", "fast": True},
        {"id": "nine", "experiment_id": "fig09", "deadline_s": 60.0},
        {
            "id": "em-under-faults", "kind": "fault-scenario",
            "workload": "em", "size_label": "350 MB", "fast": True,
            "deadline_s": 60.0,
            "scenario": {
                "seed": 7,
                "faults": [
                    {"type": "chunk-read-error", "rate": 0.05},
                    {"type": "data-node-crash", "pass": 0, "data_node": 1},
                ],
            },
        },
    ],
}


@FUZZ
@given(document=mutated(MANIFEST_DOCUMENT))
@example(document=dict(MANIFEST_DOCUMENT, name=7))
@example(document=edited(MANIFEST_DOCUMENT, lambda d: d["entries"][1].update(id=7)))
@example(
    document=edited(MANIFEST_DOCUMENT, lambda d: d["entries"][0].update(fast="no"))
)
def test_only_repro_errors_escape_a_manifest_load(tmp_path, document):
    path = tmp_path / "manifest.json"
    path.write_text(canonical_json(document))

    def load(path):
        manifest = load_manifest(path)
        manifest.fingerprint()  # what a journal binds to must serialize
        assert kept(manifest.name, document["name"])
        for entry, raw in zip(manifest.entries, document["entries"]):
            deadline = entry.effective_deadline_s(manifest.default_deadline_s)
            assert deadline is None or (math.isfinite(deadline) and deadline > 0)
            assert kept(entry.entry_id, raw["id"])
            assert kept(entry.kind, raw.get("kind", "experiment"))
            assert kept(entry.fast, raw.get("fast", False))
            for key in ("experiment_id", "workload", "size_label"):
                assert kept(getattr(entry, key), raw.get(key))

    loads_or_refuses(path, load)


EXECUTION_SCENARIO = {
    "seed": 42,
    "replicas": ["repo-b"],
    "retry_policy": {"max_attempts": 5, "base_backoff_s": 0.01},
    "checkpoints": True,
    "faults": [
        {"type": "data-node-crash", "pass": 0, "data_node": 1, "at_fraction": 0.5},
        {"type": "compute-node-crash", "pass": 1, "compute_node": 3,
         "at_fraction": 0.25},
        {"type": "link-degradation", "data_node": 0, "factor": 2.0,
         "until_pass": 2},
        {"type": "slow-node", "compute_node": 2, "factor": 1.5, "from_pass": 1},
        {"type": "chunk-read-error", "rate": 0.05, "pass": 0, "data_node": 0,
         "failures": {"3": 2}},
    ],
}
GRID_SCENARIO = {
    "recovery": "migrate",
    "retry": {"max_attempts": 3, "base_backoff_s": 0.02},
    "grid_faults": [
        {"type": "site-outage", "site": "hpc-1", "at": 2.0, "repair_after": 4.0},
        {"type": "node-pool-shrink", "site": "hpc-2", "at": 1.0, "nodes": 8,
         "restore_after": 6.0},
        {"type": "wan-degradation", "a": "repo-a", "b": "hpc-1", "factor": 2.0,
         "at": 0.0, "duration": 5.0},
        {"type": "transient-job-failure", "job": "job0007-kmeans",
         "failures": 1, "at_fraction": 0.5},
    ],
}


def load_checked_scenario(path):
    injector = load_scenario(path)
    doc = json.loads(path.read_text())
    assert kept(injector.schedule.checkpoints, doc.get("checkpoints"))
    assert all(map(kept, injector._replica_sites, doc.get("replicas", [])))


@FUZZ
@given(document=mutated(EXECUTION_SCENARIO))
@example(document=dict(EXECUTION_SCENARIO, replicas=[7]))
def test_only_repro_errors_escape_a_scenario_load(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_scenario)


def load_checked_grid_scenario(path):
    scenario = load_grid_scenario(path)
    doc = json.loads(path.read_text())
    assert kept(scenario.recovery, doc.get("recovery"))
    for fault, raw in zip(scenario.schedule.faults, doc.get("grid_faults", [])):
        for key, name in (("site", "site"), ("a", "site_a"), ("b", "site_b"),
                          ("job", "job_id")):
            if key in raw:
                assert kept(getattr(fault, name), raw[key])


@FUZZ
@given(document=mutated(GRID_SCENARIO))
@example(document=dict(GRID_SCENARIO, recovery=7))
def test_only_repro_errors_escape_a_grid_scenario_load(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_grid_scenario)


PROFILE_DOCUMENT = profile_to_dict(make_profile(n=2, c=4, rounds=2, broadcast=64.0))


def load_checked_profile(path):
    profile = load_profile(path)
    doc = json.loads(path.read_text())
    assert math.isfinite(profile.total)
    assert kept(profile.app, doc["app"])
    for key in ("storage_cluster", "compute_cluster"):
        cluster = getattr(profile, key)
        assert kept(cluster.name, doc[key]["name"])
        assert kept(cluster.node.cpu.name, doc[key]["cpu"]["name"])


@FUZZ
@given(document=mutated(PROFILE_DOCUMENT))
def test_only_repro_errors_escape_a_profile_load(tmp_path, document):
    path = tmp_path / "profile.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_profile)


STREAM = {
    "count": 12, "seed": 3, "mean_interarrival": 0.05,
    "mix": [["kmeans", None, 2.0], ["knn", "350 MB", 1.0], ["em"]],
    "deadline_fraction": 0.5, "deadline_slack": [1.5, 3.0],
    "priorities": [0, 1], "priority_weights": [3.0, 1.0],
}


def load_stream(path):
    """What ``GridBroker.resolve_jobs`` does with a ``stream`` section,
    with every deadline baseline 2 s."""
    stream = load_workload_document(path).stream
    spec = StreamSpec.from_dict(stream)
    for (workload, size, _), raw in zip(spec.mix, stream.get("mix", [])):
        assert kept(workload, raw[0]) and kept(size, raw[1] if len(raw) > 1 else None)
    jobs = generate_stream(spec, baselines=lambda workload, size: 2.0)
    assert len(jobs) == spec.count


@FUZZ
@given(stream=mutated(STREAM))
def test_only_repro_errors_escape_a_stream_spec_load(tmp_path, stream):
    path = tmp_path / "workload.json"
    path.write_text(canonical_json(dict(GRID, stream=stream)))
    loads_or_refuses(path, load_stream)


TRACE_SPECS = [make_preset(name, 6, seed=3).to_dict() for name in TRACE_PRESETS]


def load_trace_spec(path):
    """A trace spec read back, its names as written (never coerced with
    ``str()``), then expanded into the jobs it describes."""
    doc = json.loads(path.read_text())
    spec = TraceSpec.from_dict(doc)
    assert spec.name == doc["name"]
    assert [vo.name for vo in spec.vos] == [vo["name"] for vo in doc["vos"]]
    trace = TraceWorkload.from_spec(spec, baselines=lambda workload, size: 2.0)
    assert len(trace.jobs) == spec.count


@FUZZ
@given(spec=mutated(*TRACE_SPECS))
@example(spec={"name": None, "count": 5, "vos": [{"name": None}, {"name": ["x"]}]})
@example(spec=dict(TRACE_SPECS[0], vos=[dict(TRACE_SPECS[0]["vos"][0], name=None)]))
def test_only_repro_errors_escape_a_trace_spec_load(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(canonical_json(spec))
    loads_or_refuses(path, load_trace_spec)


RESULT = json.loads(
    (pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
     / "fig09_defect.json").read_text()
)


def result_row(**fields):
    """The result with its first row's ``fields`` replaced."""
    return dict(RESULT, rows=[dict(RESULT["rows"][0], **fields), *RESULT["rows"][1:]])


def load_checked_result(path):
    result = load_result(path)
    doc = json.loads(path.read_text())
    for key in ("experiment_id", "title", "workload"):
        assert kept(getattr(result, key), doc[key])
    for row, raw in zip(result.rows, doc["rows"]):
        assert kept(row.model, raw["model"])
        for key in ("data_nodes", "compute_nodes"):
            assert type(getattr(row, key)) is int and getattr(row, key) == raw[key]
        for key in ("actual", "predicted"):
            assert math.isfinite(getattr(row, key)) and getattr(row, key) == raw[key]


@FUZZ
@given(document=mutated(RESULT))
@example(document=dict(RESULT, experiment_id=7))
@example(document=dict(RESULT, title=7))
@example(document=dict(RESULT, workload=7))
@example(document=result_row(model=7))
@example(document=result_row(data_nodes=1.9))
@example(document=result_row(compute_nodes="4"))
@example(document=result_row(actual="NaN"))
@example(document=result_row(predicted="inf"))
def test_only_repro_errors_escape_a_result_load(tmp_path, document):
    path = tmp_path / "result.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_result)


GWF_LINES = [
    line.split(" ")
    for line in trace_to_gwf(
        TraceWorkload.from_spec(
            make_preset("gwa-mixed", 6, seed=3), baselines=lambda w, s: 2.0
        )
    ).splitlines()
]


def gwf_line(node):
    """One mutated line back as text, nested fields flattened by spaces."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return " ".join(gwf_line(child) for child in node)
    return str(node)


@FUZZ
@given(lines=mutated(GWF_LINES))
def test_only_repro_errors_escape_a_gwf_load(tmp_path, lines):
    path = tmp_path / "trace.gwf"
    path.write_text("\n".join(gwf_line(line) for line in lines) + "\n")
    loads_or_refuses(path, parse_gwf)


def test_the_unmutated_gwf_loads(tmp_path):
    path = tmp_path / "trace.gwf"
    path.write_text("\n".join(gwf_line(line) for line in GWF_LINES) + "\n")
    assert loads_or_refuses(path, parse_gwf)


@pytest.mark.parametrize(
    "load, document",
    [(load_manifest, MANIFEST_DOCUMENT),
     (load_checked_scenario, EXECUTION_SCENARIO),
     (load_checked_grid_scenario, GRID_SCENARIO),
     (load_checked_profile, PROFILE_DOCUMENT), (load_checked_result, RESULT),
     (load_checked_trace, TRACE_V2), (load_stream, dict(GRID, stream=STREAM)),
     *((load_trace_spec, spec) for spec in TRACE_SPECS)],
    ids=["manifest", "scenario", "grid-scenario", "profile", "result",
         "trace-artifact", "stream", *TRACE_PRESETS],
)
def test_the_unmutated_documents_load(tmp_path, load, document):
    path = tmp_path / "document.json"
    path.write_text(canonical_json(document))
    assert loads_or_refuses(path, load)


def load_journal(path):
    CampaignJournal(path).load(expected_fingerprint=MANIFEST.fingerprint())


UNREADABLE_LOADERS = {
    "manifest": load_manifest,
    "scenario": load_scenario,
    "grid-scenario": load_grid_scenario,
    "profile": load_checked_profile,
    "stream": load_stream,
    "gwf": parse_gwf,
    "trace-artifact": TraceWorkload.load,
    "journal": load_journal,
    "result": load_result,
}


@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
@pytest.mark.parametrize("loader", sorted(UNREADABLE_LOADERS))
def test_an_unreadable_path_is_refused(tmp_path, loader, unreadable):
    path = tmp_path / "document"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff{}")
    with pytest.raises(ReproError, match="document"):
        UNREADABLE_LOADERS[loader](path)
