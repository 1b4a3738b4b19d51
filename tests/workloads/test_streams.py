"""Seeded job-stream generation: determinism, mixes, deadlines."""

import json
import math
import pathlib

import pytest

from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.generate import StreamSpec, generate_stream


class TestStreamSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(count=0)
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, mean_interarrival=0.0)
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, mix=())
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, mix=(("knn", None, 0.0),))
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, deadline_fraction=1.5)
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, deadline_slack=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, priorities=())
        with pytest.raises(ConfigurationError):
            StreamSpec(count=5, priorities=(0, 1), priority_weights=(1.0,))

    def test_from_dict_defaults(self):
        spec = StreamSpec.from_dict({"count": 10})
        assert spec.count == 10
        assert spec.seed == 0
        assert spec.deadline_fraction == 0.0

    def test_from_dict_full(self):
        spec = StreamSpec.from_dict(
            {
                "count": 5,
                "seed": 3,
                "mean_interarrival": 0.2,
                "mix": [["knn", "350 MB", 2.0], ["kmeans"]],
                "deadline_fraction": 0.5,
                "deadline_slack": [1.2, 2.5],
                "priorities": [0, 1],
                "priority_weights": [3.0, 1.0],
            }
        )
        assert spec.mix == (("knn", "350 MB", 2.0), ("kmeans", None, 1.0))
        assert spec.deadline_slack == (1.2, 2.5)
        assert spec.priorities == (0, 1)

    def test_from_dict_requires_count(self):
        with pytest.raises(ConfigurationError, match="count"):
            StreamSpec.from_dict({})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mean_interarrival", math.nan),
            ("count", "10"),
            ("count", 2.7),
            ("seed", math.inf),
            ("priorities", [True]),
            ("priority_weights", [1.0, -1.0]),
            ("priority_weights", [1e308, 1e308]),
            ("deadline_slack", [1.5, math.inf]),
            ("deadline_slack", "ab"),
            ("deadline_slack", [1.5]),
            ("mix", [["kmeans", None, math.nan]]),
            ("mix", [["kmeans", 350, 1.0]]),
            ("mix", [["kmeans", None, 1e308], ["em", None, 1e308]]),
            ("mix", "kmeans"),
        ],
    )
    def test_from_dict_is_strict(self, key, value):
        doc = {"count": 10, "priorities": [0, 1], key: value}
        with pytest.raises(ConfigurationError, match=key):
            StreamSpec.from_dict(doc)


class TestGenerateStream:
    def test_same_seed_same_stream(self):
        spec = StreamSpec(count=20, seed=5, deadline_fraction=0.5)
        a = generate_stream(spec, baselines=lambda w, s: 1.0)
        b = generate_stream(spec, baselines=lambda w, s: 1.0)
        assert a == b

    def test_different_seed_different_stream(self):
        a = generate_stream(StreamSpec(count=20, seed=1))
        b = generate_stream(StreamSpec(count=20, seed=2))
        assert a != b

    def test_arrivals_sorted_and_positive(self):
        jobs = generate_stream(StreamSpec(count=30, seed=0))
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_mix_respected(self):
        spec = StreamSpec(
            count=25, seed=0, mix=(("knn", "350 MB", 1.0),)
        )
        jobs = generate_stream(spec)
        assert {j.workload for j in jobs} == {"knn"}
        assert {j.size for j in jobs} == {"350 MB"}

    def test_deadlines_use_baselines(self):
        spec = StreamSpec(
            count=20, seed=0, deadline_fraction=1.0,
            deadline_slack=(2.0, 3.0),
        )
        jobs = generate_stream(spec, baselines={"kmeans": 1.0, "knn": 1.0,
                                                "vortex": 1.0})
        for job in jobs:
            slack = job.deadline - job.arrival
            assert 2.0 <= slack <= 3.0

    def test_no_deadlines_without_fraction(self):
        jobs = generate_stream(StreamSpec(count=10, seed=0))
        assert all(j.deadline is None for j in jobs)

    def test_deadlines_need_baselines(self):
        spec = StreamSpec(count=10, seed=0, deadline_fraction=1.0)
        with pytest.raises(ConfigurationError, match="baselines"):
            generate_stream(spec)

    def test_missing_baseline_key(self):
        spec = StreamSpec(
            count=5, seed=0, deadline_fraction=1.0,
            mix=(("knn", None, 1.0),),
        )
        with pytest.raises(ConfigurationError, match="no baseline"):
            generate_stream(spec, baselines={"kmeans": 1.0})

    def test_priorities_drawn_from_spec(self):
        spec = StreamSpec(count=40, seed=0, priorities=(0, 7))
        jobs = generate_stream(spec)
        assert set(j.priority for j in jobs) == {0, 7}

    def test_job_ids_unique(self):
        jobs = generate_stream(StreamSpec(count=50, seed=0))
        assert len({j.job_id for j in jobs}) == 50


class TestGoldenPin:
    """The stream generator cannot move a single byte.

    ``stream_golden.json`` was generated by the pre-trace-layer
    ``generate_stream``; today's, one case of the trace layer's
    generator (DESIGN.md §16), must reproduce it exactly — same RNG
    draw order, same floats, same ids.
    """

    GOLDEN = (
        pathlib.Path(__file__).parent / "goldens" / "stream_golden.json"
    )
    SPECS = {
        "plain": StreamSpec(
            count=60,
            seed=42,
            mean_interarrival=0.08,
            mix=(
                ("kmeans", None, 2.0),
                ("knn", "350 MB", 1.0),
                ("vortex", None, 1.0),
            ),
            priorities=(0, 1),
            priority_weights=(3.0, 1.0),
        ),
        "deadlines": StreamSpec(
            count=40,
            seed=7,
            mean_interarrival=0.05,
            deadline_fraction=0.5,
            deadline_slack=(1.2, 2.5),
        ),
    }

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_shim_matches_pre_trace_golden(self, case):
        golden = json.loads(self.GOLDEN.read_text())[case]
        baselines = (lambda w, s: 2.0) if case == "deadlines" else None
        jobs = generate_stream(self.SPECS[case], baselines=baselines)
        rendered = [
            {
                "arrival": j.arrival,
                "deadline": j.deadline,
                "id": j.job_id,
                "priority": j.priority,
                "size": j.size,
                "workload": j.workload,
            }
            for j in jobs
        ]
        assert rendered == golden
