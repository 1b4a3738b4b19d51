"""Deterministic expansion of trace and stream specs into broker jobs.

The per-VO draw discipline of :func:`generate_trace`:

1. all interarrival gaps in one vectorized call
   (``vo.interarrival.sample(rng, n)``);
2. gaps fold into arrival times — under a :class:`DiurnalSpec` each gap
   is divided by the rate factor at the *current* arrival time, the
   deterministic equivalent of rate-modulated thinning;
3. then per job, in order: mix index, priority index, deadline coin,
   slack uniform.

Step 3 is :func:`realize_jobs`.  A
:class:`~repro.workloads.traces.spec.StreamSpec` — Poisson
arrivals, one workload mix, optional deadlines drawn as a slack multiple
of each workload's best predicted execution time, a priority
distribution — is the single-VO exponential special case:
:func:`generate_stream` draws its gaps from
``DistributionSpec.exponential(mean)`` and runs the same loop, consuming
exactly the bits the pre-trace stream generator drew, so every
historical seeded stream replays byte-identically (the golden under
``tests/workloads/goldens/stream_golden.json`` pins this).

A weighted index is ``cdf.searchsorted(random(), "right")`` over the CDF
that ``Generator.choice(n, p=…)`` builds (normalise, ``cumsum``, divide
by the last entry), found with :func:`bisect.bisect_right` on the same
doubles; an unweighted one is ``integers(0, n)``, which is what
``choice(n)`` calls.  The oracle property in
``tests/workloads/test_trace_property.py`` holds the jobs and the
generator's final state to the ``choice`` loop these draws replaced.

Draw order is fixed (all inter-arrival gaps first, then step 3 per
job): changing it would silently change every seeded experiment, so
treat it as part of the format.

VO streams are merged by ``(arrival, job_id)`` as field rows and each
job is built once, with its zero-based ``arrival_index`` in the merged
order, so reports can aggregate per VO and per arrival window without a
join back here.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.broker.jobs import BrokerJob
from repro.simgrid.errors import ConfigurationError
from repro.workloads.traces.distributions import DistributionSpec
from repro.workloads.traces.spec import (
    DiurnalSpec,
    Mix,
    StreamSpec,
    TraceSpec,
    _check_weights,
)

__all__ = [
    "StreamSpec",
    "split_counts",
    "modulated_arrivals",
    "realize_jobs",
    "generate_stream",
    "generate_trace",
    "stream_horizon",
]

#: ``baselines`` may be a callable ``(workload, size) -> seconds`` or a
#: mapping keyed like :attr:`BrokerJob.dataset_key`.
Baselines = Union[
    Callable[[str, Optional[str]], float], Mapping[str, float], None
]


def split_counts(total: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``total`` across ``weights`` by largest remainder.

    Deterministic, exact (sums to ``total``), and stable: quotas are
    floored, then the leftover units go to the largest fractional
    remainders, earliest index winning ties.
    """
    if total < 0:
        raise ConfigurationError("cannot split a negative total")
    if not weights or any(w <= 0 for w in weights):
        raise ConfigurationError("split weights must be positive")
    scale = float(sum(weights))
    quotas = [total * w / scale for w in weights]
    counts = [int(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (counts[i] - quotas[i], i)
    )
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def modulated_arrivals(
    gaps: np.ndarray, modulation: Optional[DiurnalSpec]
) -> np.ndarray:
    """Fold raw gaps into arrival times, warped by the diurnal cycle.

    Without modulation this is a plain cumulative sum (the stream
    generator's behaviour).  With it, each gap is divided by the rate
    factor at the previous arrival — sequential by construction, since
    the factor depends on the clock the earlier gaps produced.
    """
    if modulation is None:
        arrivals = np.cumsum(gaps)
    else:
        arrivals = np.full(len(gaps), np.inf)
        t = 0.0
        rate_factor = modulation.rate_factor
        with contextlib.suppress(ValueError):  # math.sin of an infinite phase
            for i, gap in enumerate(gaps.tolist()):
                t += gap / rate_factor(t)
                arrivals[i] = t
    if not np.isfinite(arrivals).all():
        raise ConfigurationError("interarrival draws overflow the simulated clock")
    return arrivals


def _baseline_for(
    baselines: Baselines, workload: str, size: Optional[str]
) -> float:
    key = f"{workload}@{size}" if size else workload
    if baselines is None:
        raise ConfigurationError(
            "stream draws deadlines but no baselines were provided; "
            "pass a mapping or GridBroker.baseline_estimate"
        )
    if callable(baselines):
        value = baselines(workload, size)
    else:
        if key not in baselines:
            raise ConfigurationError(f"no baseline for dataset '{key}'")
        value = baselines[key]
    value = float(value)
    if value <= 0:
        raise ConfigurationError(f"baseline for '{key}' must be positive")
    return value


def _cdf(weights: Sequence[float]) -> List[float]:
    """The CDF ``Generator.choice(n, p=…)`` searches, built the same way."""
    cdf = np.array(weights, dtype=float)
    cdf /= cdf.sum()
    cdf = cdf.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


#: A drawn job's fields, in :class:`BrokerJob` order up to ``vo``.
_Row = Tuple[str, str, Optional[str], float, Optional[float], int, Optional[str]]


def _draw_rows(
    rng: np.random.Generator,
    arrivals: np.ndarray,
    *,
    mix: Mix,
    priorities: Sequence[int],
    priority_weights: Sequence[float],
    deadline_fraction: float,
    deadline_slack: Sequence[float],
    baselines: Baselines,
    job_id_for: Callable[[int, str], str],
    vo: Optional[str] = None,
) -> List[_Row]:
    """The step-3 loop behind :func:`realize_jobs`, as field rows."""
    where = f"VO '{vo}': " if vo else ""
    mix_weights = [w for _, _, w in mix]
    _check_weights(f"{where}mix weights", mix_weights)
    _check_weights(f"{where}priority_weights", priority_weights)
    if priority_weights and len(priority_weights) != len(priorities):
        raise ConfigurationError(
            f"{where}priority_weights must match priorities in length"
        )
    mix_cdf = _cdf(mix_weights)
    prio_cdf = _cdf(priority_weights) if priority_weights else None
    n_priorities = len(priorities)

    rows: List[_Row] = []
    for i, arrival in enumerate(np.asarray(arrivals, dtype=float).tolist()):
        workload, size, _ = mix[bisect_right(mix_cdf, rng.random())]
        if prio_cdf is None:
            prio_index = int(rng.integers(0, n_priorities))
        else:
            prio_index = bisect_right(prio_cdf, rng.random())
        deadline = None
        if rng.random() < deadline_fraction:
            slack = float(rng.uniform(*deadline_slack))
            deadline = arrival + slack * _baseline_for(
                baselines, workload, size
            )
        rows.append(
            (
                job_id_for(i, workload),
                workload,
                size,
                arrival,
                deadline,
                priorities[prio_index],
                vo,
            )
        )
    return rows


def realize_jobs(
    rng: np.random.Generator,
    arrivals: np.ndarray,
    *,
    mix: Mix,
    priorities: Sequence[int],
    priority_weights: Sequence[float],
    deadline_fraction: float,
    deadline_slack: Sequence[float],
    baselines: Baselines,
    job_id_for: Callable[[int, str], str],
    vo: Optional[str] = None,
) -> List[BrokerJob]:
    """Draw the per-job fields over fixed arrivals (the step-3 loop).

    The draw order per job — mix index, priority index, deadline coin,
    slack uniform — is part of the seeded-workload format; both the
    trace generator and the Poisson stream generator run this one loop
    (``generate_trace`` takes its rows, to build each job once) so the
    order can never fork.  Mix and priority weights must be positive
    with a finite sum, or ``ConfigurationError`` names them.
    """
    rows = _draw_rows(
        rng,
        arrivals,
        mix=mix,
        priorities=priorities,
        priority_weights=priority_weights,
        deadline_fraction=deadline_fraction,
        deadline_slack=deadline_slack,
        baselines=baselines,
        job_id_for=job_id_for,
        vo=vo,
    )
    return [BrokerJob(*row) for row in rows]


def generate_stream(
    spec: StreamSpec, baselines: Baselines = None
) -> List[BrokerJob]:
    """Expand a :class:`StreamSpec` into a deterministic job list.

    Returns jobs sorted by arrival.  ``baselines`` is only consulted
    when the spec draws deadlines.
    """
    rng = np.random.default_rng(spec.seed)
    interarrival = DistributionSpec.exponential(spec.mean_interarrival)
    arrivals = np.cumsum(interarrival.sample(rng, spec.count))
    return realize_jobs(
        rng,
        arrivals,
        mix=spec.mix,
        priorities=spec.priorities,
        priority_weights=spec.priority_weights,
        deadline_fraction=spec.deadline_fraction,
        deadline_slack=spec.deadline_slack,
        baselines=baselines,
        job_id_for=lambda i, workload: f"job{i:04d}-{workload}",
    )


def generate_trace(
    spec: TraceSpec, baselines: Baselines = None
) -> List[BrokerJob]:
    """Expand a :class:`TraceSpec` into a deterministic merged job list.

    Each VO draws from ``default_rng([spec.seed, vo_index])`` — a child
    seed sequence, so VO streams are independent and editing one VO's
    spec leaves every other VO's jobs untouched.  The merged list is
    sorted by ``(arrival, job_id)`` and stamped with ``arrival_index``.
    ``baselines`` is only consulted by VOs that draw deadlines.
    """
    counts = split_counts(spec.count, [vo.weight for vo in spec.vos])
    merged: List[_Row] = []
    for vo_index, (vo, n) in enumerate(zip(spec.vos, counts)):
        if n == 0:
            continue
        rng = np.random.default_rng([spec.seed, vo_index])
        gaps = vo.interarrival.sample(rng, n)
        arrivals = modulated_arrivals(gaps, spec.modulation)
        vo_name = vo.name
        merged.extend(
            _draw_rows(
                rng,
                arrivals,
                mix=vo.mix,
                priorities=vo.priorities,
                priority_weights=vo.priority_weights,
                deadline_fraction=vo.deadline_fraction,
                deadline_slack=vo.deadline_slack,
                baselines=baselines,
                job_id_for=(
                    lambda i, workload, _vo=vo_name: (
                        f"{_vo}-{i:06d}-{workload}"
                    )
                ),
                vo=vo_name,
            )
        )
    merged.sort(key=itemgetter(3, 0))  # (arrival, job_id)
    return [BrokerJob(*row, index) for index, row in enumerate(merged)]


def stream_horizon(jobs) -> float:
    """A fault-injection horizon covering a job stream's arrival span.

    The chaos timeline generator draws fault times over ``[0, horizon)``;
    one-and-a-half times the last arrival (with a 1-second floor for
    bursty short streams) keeps grid weather landing where jobs are
    actually contending rather than long after the stream drains.
    """
    if not jobs:
        raise ConfigurationError("cannot size a horizon for an empty stream")
    return max(1.0, 1.5 * max(job.arrival for job in jobs))
