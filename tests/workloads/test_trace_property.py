"""Property suites for the trace layer (DESIGN.md §16).

Two replay invariants, checked over randomized specs rather than the
handful of presets:

- **determinism** — a ``(seed, spec)`` pair fully determines the
  generated jobs and hence the artifact fingerprint; serializing the
  spec and regenerating from the round-tripped copy changes nothing;
- **GWF round trip** — any generated trace survives
  ``trace_to_gwf`` -> ``parse_gwf`` with every job field intact, and
  the serialization is idempotent;
- **draw oracle** — ``realize_jobs`` makes the jobs, and leaves the
  generator in the state, that the ``Generator.choice`` loop it
  replaced does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broker.jobs import BrokerJob
from repro.workloads.registry import WORKLOADS
from repro.workloads.traces import (
    DistributionSpec,
    DiurnalSpec,
    TraceSpec,
    TraceWorkload,
    VoSpec,
    parse_gwf,
    realize_jobs,
    trace_to_gwf,
)


def flat_baseline(workload, size):
    return 2.0


_MIX_ENTRIES = sorted(
    ((name, size) for name, spec in WORKLOADS.items()
     for size in (None, *spec.dataset_sizes_gb)),
    key=lambda entry: (entry[0], entry[1] or ""),
)

distributions = st.one_of(
    st.builds(
        DistributionSpec.exponential, st.floats(0.01, 1.0, allow_nan=False)
    ),
    st.builds(
        DistributionSpec.weibull,
        st.floats(0.4, 3.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    ),
    st.builds(
        DistributionSpec.lognormal,
        st.floats(-4.0, 0.0, allow_nan=False),
        st.floats(0.1, 1.5, allow_nan=False),
    ),
    st.builds(
        DistributionSpec.pareto,
        st.floats(1.1, 3.0, allow_nan=False),
        st.floats(0.01, 0.5, allow_nan=False),
    ),
    st.builds(DistributionSpec.constant, st.floats(0.01, 1.0)),
)

mixes = st.lists(
    st.tuples(
        st.sampled_from(_MIX_ENTRIES), st.floats(0.5, 4.0, allow_nan=False)
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda entry: entry[0],
).map(
    lambda entries: tuple(
        (name, size, weight) for (name, size), weight in entries
    )
)


@st.composite
def vo_specs(draw, name):
    priorities = tuple(draw(st.sets(st.integers(0, 5), min_size=1)))
    return VoSpec(
        name=name,
        weight=draw(st.floats(0.5, 5.0, allow_nan=False)),
        interarrival=draw(distributions),
        mix=draw(mixes),
        deadline_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        deadline_slack=(1.5, 3.0),
        priorities=priorities,
        priority_weights=tuple(
            draw(
                st.lists(
                    st.floats(0.5, 4.0, allow_nan=False),
                    min_size=len(priorities),
                    max_size=len(priorities),
                )
            )
        ),
    )


@st.composite
def trace_specs(draw):
    vo_count = draw(st.integers(1, 3))
    modulation = draw(
        st.one_of(
            st.none(),
            st.builds(
                DiurnalSpec,
                day_seconds=st.floats(1.0, 100.0, allow_nan=False),
                amplitude=st.floats(0.0, 0.9, allow_nan=False),
                phase=st.floats(0.0, 10.0, allow_nan=False),
                week_amplitude=st.floats(0.0, 0.5, allow_nan=False),
            ),
        )
    )
    return TraceSpec(
        name="prop",
        count=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**31)),
        vos=tuple(
            draw(vo_specs(f"vo-{index}")) for index in range(vo_count)
        ),
        modulation=modulation,
    )


@settings(max_examples=25, deadline=None)
@given(spec=trace_specs())
def test_spec_and_seed_determine_fingerprint(spec):
    first = TraceWorkload.from_spec(spec, baselines=flat_baseline)
    again = TraceWorkload.from_spec(
        TraceSpec.from_dict(spec.to_dict()), baselines=flat_baseline
    )
    assert again.jobs == first.jobs
    assert again.fingerprint == first.fingerprint
    assert len(first.jobs) == spec.count


@settings(max_examples=25, deadline=None)
@given(spec=trace_specs())
def test_gwf_round_trip_preserves_every_job(spec):
    trace = TraceWorkload.from_spec(spec, baselines=flat_baseline)
    text = trace_to_gwf(trace)
    back = parse_gwf(text, name=trace.name)
    assert back.jobs == trace.jobs
    assert trace_to_gwf(back) == text


def choice_oracle(
    rng,
    arrivals,
    *,
    mix,
    priorities,
    priority_weights,
    deadline_fraction,
    deadline_slack,
    baselines,
    job_id_for,
    vo=None,
):
    """The ``Generator.choice`` draw loop ``realize_jobs`` replaced, verbatim
    (``_baseline_for`` reduced to the callable case)."""
    mix_weights = np.array([w for _, _, w in mix], dtype=float)
    mix_weights /= mix_weights.sum()
    if priority_weights:
        prio_weights = np.array(priority_weights, dtype=float)
        prio_weights /= prio_weights.sum()
    else:
        prio_weights = None

    jobs = []
    for i in range(len(arrivals)):
        mix_index = int(rng.choice(len(mix), p=mix_weights))
        workload, size, _ = mix[mix_index]
        prio_index = int(rng.choice(len(priorities), p=prio_weights))
        priority = priorities[prio_index]
        arrival = float(arrivals[i])
        deadline = None
        if rng.random() < deadline_fraction:
            slack = float(rng.uniform(*deadline_slack))
            deadline = arrival + slack * float(baselines(workload, size))
        jobs.append(
            BrokerJob(
                job_id=job_id_for(i, workload),
                workload=workload,
                size=size,
                arrival=arrival,
                deadline=deadline,
                priority=priority,
                vo=vo,
            )
        )
    return jobs


@st.composite
def draw_fields(draw):
    priorities = tuple(
        draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    )
    weights = st.lists(
        st.floats(1e-3, 1e3, allow_nan=False),
        min_size=len(priorities),
        max_size=len(priorities),
    )
    return {
        "mix": draw(mixes),
        "priorities": priorities,
        "priority_weights": tuple(draw(st.one_of(st.just(()), weights))),
        "deadline_fraction": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "deadline_slack": (1.5, 3.0),
        "baselines": lambda workload, size: 2.0 + len(workload),
        "job_id_for": lambda i, workload: f"j{i:04d}-{workload}",
        "vo": draw(st.sampled_from([None, "vo-0"])),
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    count=st.integers(0, 40),
    fields=draw_fields(),
)
def test_draws_match_the_choice_oracle(seed, count, fields):
    arrivals = np.cumsum(np.random.default_rng(seed).exponential(1.0, count))
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    jobs = realize_jobs(rng, arrivals, **fields)
    assert jobs == choice_oracle(oracle_rng, arrivals, **fields)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
