"""Structure-aware fuzz of the loaders of files people write or the
framework stores (ROADMAP 4(a)).

Each document is damaged by the shared ``tests.fuzzing`` mutator, in
every format a reader still accepts: campaign journals 1 (one
document), 2 and 3 (JSON lines), trace artifacts 1 and 2, prediction
caches, campaign manifests, fault scenarios of both scopes, profiles,
calibrator state, and the ``stream`` section of broker workload
documents.
Loading may only raise a ``ReproError``, and never touches the file:
the bytes after a load, failed or not, are the bytes before it.
"""

import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.broker.calibration import OnlineCalibrator
from repro.broker.jobs import load_workload_document
from repro.campaign import CampaignJournal
from repro.campaign.manifest import load_manifest
from repro.core.durable import canonical_json
from repro.core.models import PredictedBreakdown
from repro.core.predcache import PredictionCache
from repro.core.store import load_profile, profile_to_dict
from repro.errors import ReproError
from repro.faults.scenario import load_grid_scenario, load_scenario
from repro.workloads.traces import TraceWorkload, make_preset
from repro.workloads.traces.generate import StreamSpec, generate_stream

from tests.broker.test_workload_fuzz import GRID
from tests.campaign.conftest import make_manifest
from tests.campaign.test_journal import GOLDENS as JOURNAL_GOLDENS, record
from tests.core.conftest import make_profile
from tests.fuzzing import mutated

TRACE_GOLDENS = pathlib.Path(__file__).parent / "workloads" / "goldens"
MANIFEST = make_manifest()
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def lines_of(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def journal_v3(directory):
    path = directory / "journal_v3.jsonl"
    journal = CampaignJournal(path)
    journal.initialize(MANIFEST.name, MANIFEST.fingerprint())
    for entry_id in ("fig02", "fig03"):
        journal.commit(record(entry_id, rows=1))
    journal.commit(record("fig04", status="timed-out", attempts=2))
    return lines_of(path)


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    return {
        1: json.loads((JOURNAL_GOLDENS / "journal_v1.json").read_text()),
        2: lines_of(JOURNAL_GOLDENS / "journal_v2.jsonl"),
        3: journal_v3(tmp_path_factory.mktemp("journal")),
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
@given(data=st.data())
def test_only_repro_errors_escape_a_journal_load(tmp_path, journals, data):
    version = data.draw(st.sampled_from(sorted(journals)))
    document = data.draw(mutated(journals[version]))
    if version == 1:
        text = canonical_json(document)
    else:
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in document)
    path = tmp_path / "journal.jsonl"
    path.write_text(text)

    def load(path):
        records = CampaignJournal(path).load(
            expected_fingerprint=MANIFEST.fingerprint(),
            legacy_fingerprint=MANIFEST.fingerprint(legacy=True),
        )
        for entry in records.values():
            assert entry.attempts >= 1 and math.isfinite(entry.elapsed_s)
            assert all(isinstance(v, str) for v in entry.violations)

    loads_or_refuses(path, load)


def trace_documents():
    v2 = TraceWorkload.from_spec(
        make_preset("gwa-mixed", 6, seed=3), baselines=lambda w, s: 2.0
    ).to_dict()
    v1 = json.loads((TRACE_GOLDENS / "trace_v1.json").read_text())
    return v1, v2


@FUZZ
@given(document=mutated(*trace_documents()))
def test_only_repro_errors_escape_a_trace_artifact_load(tmp_path, document):
    path = tmp_path / "trace.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, TraceWorkload.load)


def cache_document():
    cache = PredictionCache(max_entries=3)
    cache.put("a" * 64, {"total": 1.5, "app": "kmeans"}, 1.0)
    cache.put("b" * 64, {"total": 2.5, "app": "em"}, 2.0)
    cache.get("b" * 64)
    return cache.to_dict()


@FUZZ
@given(document=mutated(cache_document()))
def test_only_repro_errors_escape_a_prediction_cache_load(tmp_path, document):
    path = tmp_path / "cache.json"
    path.write_text(canonical_json(document))

    def load(path):
        cache = PredictionCache.load(path)
        assert len(cache) <= cache.max_entries
        for key in list(cache._entries):
            entry = cache._entries[key]
            assert math.isfinite(entry.stored_at_s) and entry.hits >= 0
            assert isinstance(entry.payload, dict)

    loads_or_refuses(path, load)


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
def test_only_repro_errors_escape_a_manifest_load(tmp_path, document):
    path = tmp_path / "manifest.json"
    path.write_text(canonical_json(document))

    def load(path):
        manifest = load_manifest(path)
        manifest.fingerprint()  # what a journal binds to must serialize
        for entry in manifest.entries:
            deadline = entry.effective_deadline_s(manifest.default_deadline_s)
            assert deadline is None or (math.isfinite(deadline) and deadline > 0)

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


@FUZZ
@given(document=mutated(EXECUTION_SCENARIO))
def test_only_repro_errors_escape_a_scenario_load(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_scenario)


@FUZZ
@given(document=mutated(GRID_SCENARIO))
def test_only_repro_errors_escape_a_grid_scenario_load(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_grid_scenario)


PROFILE_DOCUMENT = profile_to_dict(make_profile(n=2, c=4, rounds=2, broadcast=64.0))


def load_checked_profile(path):
    profile = load_profile(path)
    assert math.isfinite(profile.total)


@FUZZ
@given(document=mutated(PROFILE_DOCUMENT))
def test_only_repro_errors_escape_a_profile_load(tmp_path, document):
    path = tmp_path / "profile.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_profile)


def calibration_document():
    calibrator = OnlineCalibrator(alpha=0.5, clamp=(0.2, 5.0))
    raw = PredictedBreakdown(t_disk=10.0, t_network=20.0, t_compute=30.0)
    calibrator.observe("kmeans", "repo-a", "hpc-1", raw, (5.0, 20.0, 45.0))
    calibrator.observe("em", "repo-b", "hpc-2", raw, (12.0, 22.0, 33.0))
    return calibrator.to_dict()


CALIBRATION_DOCUMENT = calibration_document()


def load_checked_calibrator(path):
    """What a warm-starting service relies on: every number it will
    multiply a prediction by is finite and in range."""
    calibrator = OnlineCalibrator.load(path)
    lo, hi = calibrator.clamp
    assert 0.0 < calibrator.alpha <= 1.0 and 0.0 < lo < hi < math.inf
    for factor in calibrator._factors.values():
        assert 0.0 < factor.value < math.inf and factor.observations >= 0


@FUZZ
@given(document=mutated(CALIBRATION_DOCUMENT))
def test_only_repro_errors_escape_a_calibration_load(tmp_path, document):
    path = tmp_path / "calibration.json"
    path.write_text(canonical_json(document))
    loads_or_refuses(path, load_checked_calibrator)


STREAM = {
    "count": 12, "seed": 3, "mean_interarrival": 0.05,
    "mix": [["kmeans", None, 2.0], ["knn", "350 MB", 1.0], ["em"]],
    "deadline_fraction": 0.5, "deadline_slack": [1.5, 3.0],
    "priorities": [0, 1], "priority_weights": [3.0, 1.0],
}


def load_stream(path):
    """What ``GridBroker.resolve_jobs`` does with a ``stream`` section,
    with every deadline baseline 2 s."""
    spec = StreamSpec.from_dict(load_workload_document(path).stream)
    jobs = generate_stream(spec, baselines=lambda workload, size: 2.0)
    assert len(jobs) == spec.count


@FUZZ
@given(stream=mutated(STREAM))
def test_only_repro_errors_escape_a_stream_spec_load(tmp_path, stream):
    path = tmp_path / "workload.json"
    path.write_text(canonical_json(dict(GRID, stream=stream)))
    loads_or_refuses(path, load_stream)


@pytest.mark.parametrize(
    "load, document",
    [(load_manifest, MANIFEST_DOCUMENT), (load_scenario, EXECUTION_SCENARIO),
     (load_grid_scenario, GRID_SCENARIO),
     (load_checked_profile, PROFILE_DOCUMENT),
     (load_checked_calibrator, CALIBRATION_DOCUMENT),
     (load_stream, dict(GRID, stream=STREAM))],
    ids=["manifest", "scenario", "grid-scenario", "profile", "calibration",
         "stream"],
)
def test_the_unmutated_documents_load(tmp_path, load, document):
    path = tmp_path / "document.json"
    path.write_text(canonical_json(document))
    assert loads_or_refuses(path, load)
