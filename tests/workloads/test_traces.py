"""Unit tests for the trace workload layer (DESIGN.md §16)."""

import json
import pathlib
import re

import numpy as np
import pytest

from repro.core.durable import CorruptStoreError
from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces import (
    DEFAULT_GWF_MAPPING,
    DistributionSpec,
    DiurnalSpec,
    GwfMapping,
    TraceSpec,
    TraceWorkload,
    VoSpec,
    generate_trace,
    make_preset,
    modulated_arrivals,
    parse_gwf,
    realize_jobs,
    split_counts,
    trace_to_gwf,
)

BASELINES = {"": 2.0}
GOLDENS = pathlib.Path(__file__).parent / "goldens"


def flat_baseline(workload, size):
    return 2.0


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------


class TestDistributions:
    def test_exponential_matches_legacy_poisson_draw(self):
        spec = DistributionSpec.exponential(0.08)
        a = spec.sample(np.random.default_rng(42), 50)
        b = np.random.default_rng(42).exponential(0.08, 50)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec.exponential(0.5),
            DistributionSpec.weibull(0.64, 1.0),
            DistributionSpec.lognormal(-1.0, 0.9),
            DistributionSpec.gamma(2.0, 0.25),
            DistributionSpec.pareto(1.8, 0.1),
            DistributionSpec.uniform(0.0, 2.0),
            DistributionSpec.constant(0.3),
        ],
    )
    def test_round_trip_and_positive_samples(self, spec):
        assert DistributionSpec.from_dict(spec.to_dict()) == spec
        draws = spec.sample(np.random.default_rng(7), 200)
        assert len(draws) == 200
        assert (draws >= 0).all()

    def test_sample_mean_tracks_analytic_mean(self):
        for spec in (
            DistributionSpec.exponential(0.5),
            DistributionSpec.weibull(1.5, 1.0),
            DistributionSpec.lognormal(-1.0, 0.5),
            DistributionSpec.gamma(2.0, 0.25),
            DistributionSpec.uniform(0.0, 2.0),
        ):
            draws = spec.sample(np.random.default_rng(11), 20000)
            assert draws.mean() == pytest.approx(spec.mean(), rel=0.05)

    def test_pareto_minimum_is_scale(self):
        spec = DistributionSpec.pareto(1.8, 0.25)
        draws = spec.sample(np.random.default_rng(3), 1000)
        assert draws.min() >= 0.25

    def test_constant_draws_no_randomness(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        DistributionSpec.constant(1.0).sample(rng, 10)
        assert rng.bit_generator.state == before

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec("nope", ())
        with pytest.raises(ConfigurationError):
            DistributionSpec.exponential(-1.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec.uniform(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec.from_dict({"kind": "exponential", "params": {}})
        with pytest.raises(ConfigurationError):
            DistributionSpec.from_dict(
                {"kind": "exponential", "params": {"mean": 1.0, "x": 2.0}}
            )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


class TestSpecs:
    def test_diurnal_factor_positive_and_periodic(self):
        mod = DiurnalSpec(
            day_seconds=10.0, amplitude=0.9, week_amplitude=0.5
        )
        ts = [0.1 * k for k in range(1400)]
        factors = [mod.rate_factor(t) for t in ts]
        assert min(factors) > 0.0
        assert mod.rate_factor(3.0) == pytest.approx(
            mod.rate_factor(3.0 + 70.0)
        )

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalSpec(amplitude=1.0)
        with pytest.raises(ConfigurationError):
            DiurnalSpec(day_seconds=0.0)

    def test_trace_spec_round_trip(self):
        spec = make_preset("gwa-mixed", 500, seed=4)
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.update(count="abc"), "'count'"),
            (lambda d: d.update(count=2.7), "'count'"),
            (lambda d: d.update(count=True), "'count'"),
            (lambda d: d.update(vos=5), "'vos'"),
            (lambda d: d.update(vos=[7]), "'vos[0]'"),
            (lambda d: d.update(modulation=[1]), "'modulation'"),
            (lambda d: d["modulation"].update(day_seconds=None), "'day_seconds'"),
            (lambda d: d["modulation"].update(day_seconds=float("nan")),
             "'day_seconds'"),
            (lambda d: d["vos"][0].update(priorities="ab"), "'priorities'"),
            (lambda d: d["vos"][0].update(weight=[1]), "'weight'"),
            (lambda d: d["vos"][0].update(weight=1e308), "VO weights"),
            (lambda d: d["vos"][0].update(deadline_slack=5), "'deadline_slack'"),
            (lambda d: d["vos"][0].update(interarrival=3), "'interarrival'"),
            (lambda d: d.update(name=None), "'name' must be a string"),
            (lambda d: d.update(name=7), "'name' must be a string"),
            (lambda d: d["vos"][0].update(name=None), "'name' must be a string"),
            (lambda d: d["vos"][1].update(name=["x"]), "'name' must be a string"),
        ],
    )
    def test_trace_spec_load_names_the_bad_field(self, edit, field):
        doc = make_preset("gwa-mixed", 500, seed=4).to_dict()
        edit(doc)
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            TraceSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": None, "count": 5, "vos": [{"name": "a"}]},
            {"name": "t", "count": 5, "vos": [{"name": None}]},
            {"name": "t", "count": 5, "vos": [{"name": "a"}, {"name": ["x"]}]},
            {"name": {"a": 1}, "count": 5, "vos": [{"name": "a"}]},
        ],
    )
    def test_names_are_checked_not_coerced(self, doc):
        # str() used to load these as 'None' and "['x']".
        with pytest.raises(ConfigurationError, match="'name' must be a string"):
            TraceSpec.from_dict(doc)

    def test_duplicate_vo_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceSpec(
                name="t", count=10,
                vos=(VoSpec("a"), VoSpec("a")),
            )

    def test_count_and_seed_are_bounded_before_any_array_is_sized(self):
        # NumPy would answer these with "expected non-negative integer"
        # and "Maximum allowed dimension exceeded" tracebacks.
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            make_preset("poisson", 10, seed=-1)
        with pytest.raises(ConfigurationError, match="at most 10000000"):
            make_preset("poisson", 10**20, seed=1)
        with pytest.raises(ConfigurationError, match="count must be positive"):
            make_preset("poisson", 0, seed=1)

    def test_vo_validation(self):
        with pytest.raises(ConfigurationError):
            VoSpec("a", weight=0.0)
        with pytest.raises(ConfigurationError):
            VoSpec("a", priorities=())
        with pytest.raises(ConfigurationError):
            VoSpec("a", priorities=(0, 1), priority_weights=(1.0,))


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


class TestGeneration:
    def test_split_counts_exact_and_deterministic(self):
        assert split_counts(10, [1.0, 1.0, 1.0]) == [4, 3, 3]
        assert split_counts(7, [5.0, 3.0, 1.0]) == [4, 2, 1]
        assert sum(split_counts(100001, [3.1, 2.2, 7.7])) == 100001

    def test_modulated_arrivals_monotone(self):
        gaps = np.random.default_rng(1).exponential(0.1, 500)
        mod = DiurnalSpec(day_seconds=5.0, amplitude=0.8)
        arrivals = modulated_arrivals(gaps, mod)
        assert (np.diff(arrivals) > 0).all()
        plain = modulated_arrivals(gaps, None)
        assert plain.tolist() == np.cumsum(gaps).tolist()

    @pytest.mark.parametrize(
        "gaps, mod",
        [
            ([1.0, 1e308, 1e308, 1.0], None),
            ([1.0, 1e308, 1e308, 1.0], DiurnalSpec(day_seconds=5.0, amplitude=0.8)),
            ([1.0, 1.0], DiurnalSpec(day_seconds=5e-324, amplitude=0.5)),
            ([1.0, 1.0], DiurnalSpec(amplitude=0.5, phase=-1e308)),
        ],
    )
    def test_arrivals_that_overflow_the_clock_are_refused(self, gaps, mod):
        # An infinite phase would reach math.sin as a bare ValueError.
        with np.errstate(over="ignore"), pytest.raises(
            ConfigurationError, match="overflow"
        ):
            modulated_arrivals(np.array(gaps), mod)

    def test_generate_trace_is_deterministic(self):
        spec = make_preset("gwa-mixed", 300, seed=8)
        a = generate_trace(spec, baselines=flat_baseline)
        b = generate_trace(spec, baselines=flat_baseline)
        assert a == b

    def test_arrival_index_is_merged_order(self):
        spec = make_preset("gwa-mixed", 200, seed=8)
        jobs = generate_trace(spec, baselines=flat_baseline)
        assert [j.arrival_index for j in jobs] == list(range(len(jobs)))
        assert jobs == sorted(jobs, key=lambda j: (j.arrival, j.job_id))

    def test_vo_streams_are_independent(self):
        """Editing one VO leaves every other VO's jobs untouched."""
        spec = make_preset("gwa-mixed", 300, seed=8)
        jobs = generate_trace(spec, baselines=flat_baseline)
        # Rescale the *last* VO; atlas/cms draws must not move.
        vos = list(spec.vos)
        vos[-1] = VoSpec(
            name=vos[-1].name,
            weight=vos[-1].weight,
            interarrival=DistributionSpec.exponential(0.5),
            mix=vos[-1].mix,
            priorities=vos[-1].priorities,
            priority_weights=vos[-1].priority_weights,
        )
        edited = TraceSpec(
            name=spec.name, count=spec.count, seed=spec.seed,
            vos=tuple(vos), modulation=spec.modulation,
        )
        jobs2 = generate_trace(edited, baselines=flat_baseline)

        def key(js, vo):
            return [
                (j.job_id, j.arrival, j.workload, j.priority)
                for j in js
                if j.vo == vo
            ]

        for vo in ("atlas", "cms"):
            assert key(jobs, vo) == key(jobs2, vo)

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"mix": (("kmeans", None, 0.0),)}, "mix weights"),
            (
                {"mix": (("kmeans", None, 1.0), ("knn", None, -1.0))},
                "mix weights",
            ),
            (
                {"mix": (("kmeans", None, float("nan")),)},
                "mix weights",
            ),
            (
                {"priorities": (0, 1), "priority_weights": (1.0, -0.5)},
                "priority_weights",
            ),
            (
                {"priorities": (0, 1), "priority_weights": (0.0, 0.0)},
                "priority_weights",
            ),
            (
                {"priorities": (0, 1), "priority_weights": (1.0,)},
                "priority_weights",
            ),
        ],
    )
    def test_realize_jobs_refuses_bad_weights(self, fields, named):
        """Refused before any draw, naming the field, not NumPy's error."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        kwargs = {
            "mix": (("kmeans", None, 1.0),),
            "priorities": (0,),
            "priority_weights": (),
            "deadline_fraction": 0.0,
            "deadline_slack": (1.5, 3.0),
            "baselines": None,
            "job_id_for": lambda i, workload: f"j{i}",
            **fields,
        }
        with pytest.raises(ConfigurationError, match=named):
            realize_jobs(rng, np.array([1.0, 2.0]), **kwargs)
        assert rng.bit_generator.state == state

    def test_every_job_tagged_with_vo(self):
        jobs = generate_trace(
            make_preset("gwa-mixed", 120, seed=1), baselines=flat_baseline
        )
        assert all(j.vo in {"atlas", "cms", "biomed"} for j in jobs)


# ----------------------------------------------------------------------
# Artifact
# ----------------------------------------------------------------------


class TestArtifact:
    def make(self, count=150, seed=6):
        return TraceWorkload.from_spec(
            make_preset("gwa-mixed", count, seed=seed),
            baselines=flat_baseline,
        )

    def test_fingerprint_is_replay_identity(self):
        assert self.make().fingerprint == self.make().fingerprint
        assert (
            self.make(seed=6).fingerprint != self.make(seed=7).fingerprint
        )

    def test_benchmark_trace_fingerprint_is_pinned(self):
        """The 10,000-job trace ``broker_trace`` brokers, recorded from
        the ``Generator.choice`` draw loop: a faster generator must
        still produce it byte for byte."""
        trace = TraceWorkload.from_spec(
            make_preset("gwa-mixed", 10000, seed=1), baselines=flat_baseline
        )
        assert trace.fingerprint == (
            "712233d0fc85d6513f32ef2a863a3217858f6dd438e57df7ae51de3700d886e8"
        )

    def test_save_load_round_trip(self, tmp_path):
        trace = self.make()
        path = trace.save(tmp_path / "t.trace.json")
        loaded = TraceWorkload.load(path)
        assert loaded.fingerprint == trace.fingerprint
        assert loaded.jobs == trace.jobs

    def test_save_is_byte_deterministic(self, tmp_path):
        a = self.make().save(tmp_path / "a.json")
        b = self.make().save(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_artifact_rejected(self, tmp_path):
        trace = self.make()
        path = trace.save(tmp_path / "t.trace.json")
        doc = json.loads(path.read_text())
        doc["jobs"][0]["priority"] += 1
        pathlib.Path(path).write_text(json.dumps(doc))
        with pytest.raises(CorruptStoreError):
            TraceWorkload.load(path)

    def test_wrong_job_count_rejected(self, tmp_path):
        trace = self.make()
        doc = trace.to_dict()
        doc["job_count"] = 3
        del doc["fingerprint"]
        with pytest.raises(CorruptStoreError):
            TraceWorkload.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("priority", 1.5), ("arrival", "0.1"), ("arrival", float("nan")),
         ("deadline", [3.0])],
    )
    def test_malformed_job_is_a_configuration_error(self, field, value):
        doc = self.make(count=10).to_dict()
        doc["jobs"][2][field] = value
        del doc["fingerprint"]
        with pytest.raises(ConfigurationError, match=field):
            TraceWorkload.from_dict(doc)

    def test_format_1_golden_loads_with_its_own_digest(self, tmp_path):
        # Written by the last format-1 build: make_preset("gwa-mixed", 8,
        # seed=6) under the flat baseline, fingerprinted over indented JSON.
        path = tmp_path / "t.trace.json"
        path.write_bytes((GOLDENS / "trace_v1.json").read_bytes())
        loaded = TraceWorkload.load(path)
        fresh = TraceWorkload.from_spec(
            make_preset("gwa-mixed", 8, seed=6), baselines=flat_baseline
        )
        assert loaded.jobs == fresh.jobs
        assert loaded.fingerprint == fresh.fingerprint
        assert loaded.fingerprint != json.loads(path.read_text())["fingerprint"]
        assert fresh.to_dict()["format_version"] == 2
        assert path.read_bytes() == (GOLDENS / "trace_v1.json").read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_tampered_artifact_fails_in_either_format(self, tmp_path, version):
        path = tmp_path / "t.trace.json"
        if version == 1:
            doc = json.loads((GOLDENS / "trace_v1.json").read_text())
        else:
            doc = self.make(count=8).to_dict()
        doc["jobs"][0]["priority"] += 1
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(CorruptStoreError, match="fingerprint mismatch"):
            TraceWorkload.load(path)

    def test_out_of_order_stamping_rejected(self):
        trace = self.make(count=10)
        jobs = list(trace.jobs)
        jobs[0], jobs[1] = jobs[1], jobs[0]
        with pytest.raises(ConfigurationError):
            TraceWorkload(name="bad", jobs=tuple(jobs))


# ----------------------------------------------------------------------
# GWF
# ----------------------------------------------------------------------


class TestGwf:
    def test_round_trip_preserves_jobs_exactly(self):
        trace = TraceWorkload.from_spec(
            make_preset("gwa-mixed", 200, seed=12), baselines=flat_baseline
        )
        back = parse_gwf(trace_to_gwf(trace), name=trace.name)
        assert back.jobs == trace.jobs

    def test_serialize_is_idempotent(self):
        trace = TraceWorkload.from_spec(
            make_preset("poisson", 80, seed=2), baselines=flat_baseline
        )
        text = trace_to_gwf(trace)
        again = trace_to_gwf(parse_gwf(text, name=trace.name))
        assert again == text

    def test_foreign_trace_parses_with_mapping(self):
        text = (
            "# comment line\n"
            "1 1000 3 45 1 -1 -1 1 -1 -1 1 12 3 -1 0 -1 -1 -1 -1 -1 "
            "-1 -1 -1 -1 -1 -1 -1 2 -1\n"
            "2 1010 -1 700 2 -1 -1 -1 3600 -1 1 12 3\n"
            "3 1020 5 90000 4\n"
        )
        trace = parse_gwf(text, name="foreign")
        by_id = {j.job_id: j for j in trace.jobs}
        # Runtime bins: 45s -> kmeans, 700s -> em@350 MB, 90000s -> tail.
        assert by_id["1"].workload == "kmeans"
        assert (by_id["2"].workload, by_id["2"].size) == ("em", "350 MB")
        assert by_id["3"].workload == "vortex"
        # Arrivals shift to the trace origin.
        assert by_id["1"].arrival == 0.0
        assert by_id["3"].arrival == 20.0
        # ReqTime becomes a relative deadline; VOID/GroupID become VO tags.
        assert by_id["2"].deadline == pytest.approx(10.0 + 3600.0)
        assert by_id["1"].vo == "vo2"
        assert by_id["2"].vo == "group3"
        assert by_id["3"].vo is None

    def test_short_row_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_gwf("1 1000 3\n", name="bad")

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_gwf("1 1000 3 45\n1 1001 3 45\n", name="dup")

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_gwf("# only comments\n", name="empty")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# repro-origin: abc\n1 1000 3 45\n", "line 1 repro-origin"),
            ("# repro-executable: x kmeans -\n1 1000 3 45\n",
             "line 1 repro-executable"),
            ("# repro-vo: x atlas\n1 1000 3 45\n", "line 1 repro-vo"),
            ("1 1000 3 45\n2 1001 3 45 " + "-1 " * 9 + "inf\n",
             "line 2 column ExecutableID"),
            ("1 nan 3 45\n", "line 1 column SubmitTime"),
            ("1 1000 3 45 " + "-1 " * 10 + "1.5\n", "line 1 column QueueID"),
        ],
        ids=["origin", "executable-header", "vo-header", "inf-executable",
             "nan-submit", "fractional-queue"],
    )
    def test_bad_numbers_name_their_line(self, text, where):
        with pytest.raises(ConfigurationError, match=where):
            parse_gwf(text, name="bad")

    def test_mapping_validation(self):
        with pytest.raises(ConfigurationError):
            GwfMapping(bins=(), overflow=("kmeans", None))
        with pytest.raises(ConfigurationError):
            GwfMapping(
                bins=((60.0, "a", None), (60.0, "b", None)),
                overflow=("kmeans", None),
            )

    def test_default_mapping_covers_unknown_runtime(self):
        workload, size = DEFAULT_GWF_MAPPING.classify(None)
        assert workload == "kmeans" and size is None


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_preset("nope", 10)

    @pytest.mark.parametrize("name", ["poisson", "gwa-mixed", "heavy-tail"])
    def test_presets_generate_expected_count(self, name):
        spec = make_preset(name, 123, seed=5)
        jobs = generate_trace(spec, baselines=flat_baseline)
        assert len(jobs) == 123
