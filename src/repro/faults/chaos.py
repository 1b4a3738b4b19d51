"""Seeded chaos campaigns over the grid broker.

The tentpole guarantee of the grid fault model is *determinism under
adversity*: whatever weather hits the grid, every admitted job settles
exactly once, no reservation window overlaps a declared outage, and the
whole faulted run replays byte-identically from its ``(seed, scenario)``
pair.  This module turns that guarantee into an executable harness:

- :func:`chaos_timeline` draws a randomized-but-seeded
  :class:`~repro.faults.grid.GridFaultSchedule` against a concrete
  topology and job stream.  Every generated fault is *survivable by
  construction* — outages repair, shrunk pools restore, transient
  failures stay inside the default retry budget — so the stream can in
  principle finish (individual jobs may still strand or exhaust their
  budget; the invariants cover that).
- :func:`verify_run` checks one finished
  :class:`~repro.broker.report.PolicyRun` (plus the broker's node
  ledger) against the invariant suite and returns human-readable
  violations — an empty list is a pass.
- :func:`run_campaign` sweeps many seeds: for each it generates a
  timeline, brokers the stream under it, verifies the invariants, and
  re-runs the identical (seed, scenario) pair asserting a byte-identical
  report.  The result is a :class:`ChaosReport`.

The same guarantee extends to the prediction service: a seeded request
workload against a seeded faulty backend must answer every request
exactly once, honor every deadline up to ε, and replay byte-identically
from its ``(seed, scenario)`` pair.  :class:`ServiceChaosSpec`,
:func:`verify_service_log` and :func:`run_service_campaign` are the
service-layer half of the harness.

Imports deliberately flow ``faults.chaos -> broker / service``, which is
why this module is *not* re-exported from :mod:`repro.faults` (broker
and service themselves import ``repro.faults``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.broker.engine import GridBroker
from repro.broker.events import GridLedger
from repro.broker.report import PolicyRun
from repro.core.durable import canonical_json
from repro.faults.grid import (
    GridFaultSchedule,
    GridFaultSpec,
    NodePoolShrink,
    SiteOutage,
    TransientJobFailure,
    WanDegradation,
)
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology

__all__ = [
    "ChaosSpec",
    "chaos_timeline",
    "verify_run",
    "ChaosCase",
    "ChaosReport",
    "run_campaign",
    "ServiceChaosSpec",
    "verify_service_log",
    "ServiceChaosCase",
    "ServiceChaosReport",
    "run_service_campaign",
]


@dataclass(frozen=True)
class ChaosSpec:
    """Shape of one randomized timeline (all counts are maxima).

    Fault times are drawn uniformly over ``[0, horizon)``; repair and
    restore delays over ``[horizon/20, horizon/2)`` so lost capacity
    returns while the stream is still draining.
    """

    horizon: float
    max_outages: int = 2
    max_shrinks: int = 2
    max_wan: int = 2
    max_transients: int = 2
    max_transient_failures: int = 2

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("chaos horizon must be positive")
        for name in (
            "max_outages", "max_shrinks", "max_wan", "max_transients",
            "max_transient_failures",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


def chaos_timeline(
    seed: int,
    spec: ChaosSpec,
    topology: GridTopology,
    job_ids: Sequence[str],
) -> GridFaultSchedule:
    """Draw one survivable grid-fault timeline for ``seed``.

    The draw order is fixed (outages, shrinks, WAN degradations,
    transients) — like the stream generator's, it is part of the replay
    format.  At most one outage per site and one transient spec per job
    are drawn, matching :class:`GridFaultSchedule` validation.
    """
    rng = random.Random(seed)
    sites = sorted(site.name for site in topology.sites())
    edges = sorted(
        tuple(sorted((a, b))) for a, b in topology.links()
    )
    faults: List[GridFaultSpec] = []

    def delay() -> float:
        return rng.uniform(spec.horizon / 20.0, spec.horizon / 2.0)

    outage_sites = rng.sample(
        sites, min(rng.randint(0, spec.max_outages), len(sites))
    )
    for site in outage_sites:
        faults.append(
            SiteOutage(
                site=site,
                at=rng.uniform(0.0, spec.horizon),
                repair_after=delay(),
            )
        )
    for _ in range(rng.randint(0, spec.max_shrinks)):
        site = rng.choice(sites)
        nodes = max(1, topology.site(site).cluster.num_nodes // 4)
        faults.append(
            NodePoolShrink(
                site=site,
                at=rng.uniform(0.0, spec.horizon),
                nodes=rng.randint(1, nodes),
                restore_after=delay(),
            )
        )
    if edges:
        for _ in range(rng.randint(0, spec.max_wan)):
            site_a, site_b = rng.choice(edges)
            faults.append(
                WanDegradation(
                    site_a=site_a,
                    site_b=site_b,
                    factor=rng.uniform(1.5, 4.0),
                    at=rng.uniform(0.0, spec.horizon),
                    duration=delay(),
                )
            )
    if job_ids and spec.max_transients:
        targets = rng.sample(
            sorted(job_ids),
            min(rng.randint(0, spec.max_transients), len(job_ids)),
        )
        for job_id in targets:
            faults.append(
                TransientJobFailure(
                    job_id=job_id,
                    failures=rng.randint(1, spec.max_transient_failures),
                    at_fraction=rng.uniform(0.0, 0.95),
                )
            )
    return GridFaultSchedule(faults)


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------


def verify_run(
    run: PolicyRun,
    job_ids: Sequence[str],
    ledger: Optional[GridLedger],
) -> List[str]:
    """Check one finished run against the chaos invariant suite.

    Returns human-readable violations (empty = pass):

    1. **Settled exactly once** — every job of the stream appears exactly
       once across placements, rejections and terminal failures.
    2. **No double-booking** — per (site, node), reservation windows
       never overlap.
    3. **No window inside an outage** — no reservation window overlaps a
       declared :class:`~repro.broker.events.OutageRecord`.
    4. **Books balance** — goodput is in ``(0, 1]`` and wasted time is
       never negative.
    """
    violations: List[str] = []

    settled: Dict[str, int] = {job_id: 0 for job_id in job_ids}
    for placement in run.placements:
        settled[placement.job_id] = settled.get(placement.job_id, 0) + 1
    for rejection in run.rejections:
        settled[rejection.job_id] = settled.get(rejection.job_id, 0) + 1
    for failure in run.failures:
        settled[failure.job_id] = settled.get(failure.job_id, 0) + 1
    for job_id in sorted(settled):
        count = settled[job_id]
        if count != 1:
            violations.append(
                f"job '{job_id}' settled {count} time(s); expected exactly 1"
            )

    if ledger is not None:
        windows = ledger.all_windows()
        by_node: Dict[Tuple[str, int], list] = {}
        for window in windows:
            by_node.setdefault((window.site, window.node), []).append(window)
        for key in sorted(by_node):
            stack = sorted(by_node[key], key=lambda w: (w.start, w.end))
            for earlier, later in zip(stack, stack[1:]):
                if earlier.overlaps(later):
                    violations.append(
                        f"windows overlap on {key[0]}/node{key[1]}: "
                        f"{earlier.job_id}[{earlier.start:.4f},"
                        f"{earlier.end:.4f}) vs {later.job_id}"
                        f"[{later.start:.4f},{later.end:.4f})"
                    )
        for outage in ledger.all_outages():
            for window in windows:
                if outage.covers(window):
                    violations.append(
                        f"window {window.job_id}[{window.start:.4f},"
                        f"{window.end:.4f}) on {window.site}/node"
                        f"{window.node} overlaps outage starting at "
                        f"{outage.start:.4f}"
                    )

    if not 0.0 < run.goodput <= 1.0:
        violations.append(f"goodput {run.goodput} outside (0, 1]")
    if run.wasted_time < 0.0:
        violations.append(f"negative wasted time {run.wasted_time}")
    return violations


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCase:
    """Outcome of one (seed, timeline) chaos case."""

    seed: int
    faults: int
    completed: int
    rejected: int
    failed: int
    preemptions: int
    goodput: float
    replay_identical: bool
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.replay_identical and not self.violations


@dataclass(frozen=True)
class ChaosReport:
    """One campaign: per-seed cases plus the aggregate verdict."""

    policy: str
    recovery: str
    cases: Tuple[ChaosCase, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for case in self.cases:
            out.extend(
                f"seed {case.seed}: {violation}"
                for violation in case.violations
            )
            if not case.replay_identical:
                out.append(f"seed {case.seed}: replay diverged")
        return out


def _run_bytes(run: PolicyRun) -> bytes:
    from repro.broker.report import _run_to_dict

    return canonical_json(_run_to_dict(run)).encode("utf-8")


def run_campaign(
    broker: GridBroker,
    jobs: Sequence,
    seeds: Sequence[int],
    spec: ChaosSpec,
    *,
    policy: str = "min-completion",
    recovery: str = "resubmit",
) -> ChaosReport:
    """Sweep seeded fault timelines over one job stream.

    Each seed draws a timeline, brokers the stream under it, verifies
    the invariant suite, then replays the identical (seed, scenario)
    pair and compares the serialized reports byte for byte.  The broker
    instance is reused — its memoized executions are deterministic, so
    reuse only makes the campaign faster, never different.
    """
    if not seeds:
        raise ConfigurationError("chaos campaign needs at least one seed")
    job_ids = [job.job_id for job in jobs]
    cases: List[ChaosCase] = []
    for seed in seeds:
        schedule = chaos_timeline(seed, spec, broker.topology, job_ids)
        run = broker.run(jobs, policy, faults=schedule, recovery=recovery)
        violations = verify_run(run, job_ids, broker.last_ledger)
        replay = broker.run(jobs, policy, faults=schedule, recovery=recovery)
        cases.append(
            ChaosCase(
                seed=seed,
                faults=len(schedule),
                completed=len(run.placements),
                rejected=len(run.rejections),
                failed=len(run.failures),
                preemptions=len(run.preemptions),
                goodput=run.goodput,
                replay_identical=_run_bytes(run) == _run_bytes(replay),
                violations=tuple(violations),
            )
        )
    return ChaosReport(policy=policy, recovery=recovery, cases=tuple(cases))


# ----------------------------------------------------------------------
# Service-layer chaos
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceChaosSpec:
    """One service chaos scenario: workload shape + backend weather.

    The workload seed and the fault seed are both derived from the
    case seed (``seed`` and ``seed + 1``), so a case is fully described
    by ``(seed, spec)`` — the replay key.  ``requests`` is at most
    :attr:`RequestLog.WINDOW <repro.service.app.RequestLog.WINDOW>`: the
    invariants are proven from the log's records, which past the window
    no longer hold the whole run.
    """

    requests: int = 300
    rate_hz: float = 600.0
    slow_probability: float = 0.15
    crash_probability: float = 0.10
    corrupt_probability: float = 0.05
    tight_deadline_fraction: float = 0.05

    def __post_init__(self) -> None:
        from repro.service.app import RequestLog

        if self.requests < 1:
            raise ConfigurationError("service chaos needs >= 1 request")
        if self.requests > RequestLog.WINDOW:
            raise ConfigurationError(
                f"service chaos runs at most {RequestLog.WINDOW} requests "
                f"(the request log's window), got {self.requests}"
            )
        if self.rate_hz <= 0:
            raise ConfigurationError("arrival rate must be positive")


def _service_breaker_violations(service: Any) -> List[str]:
    """Re-derive breaker state-machine legality from the transition log.

    The breaker enforces its edges at runtime; the harness audits the
    *recorded* history independently — every walk must start CLOSED,
    chain contiguously (no lost transitions), use only legal edges, and
    move forward in time.
    """
    from repro.service.resilience import BreakerState

    legal = {
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        (BreakerState.HALF_OPEN, BreakerState.OPEN),
    }
    violations: List[str] = []
    bank = service.breakers
    for key in sorted(bank._breakers):
        breaker = bank._breakers[key]
        label = f"{key[0]} @ {key[1]}"
        state = BreakerState.CLOSED
        last_at = float("-inf")
        for transition in breaker.transitions:
            if transition.source is not state:
                violations.append(
                    f"breaker {label}: transition log lost an edge — "
                    f"expected source {state.value}, recorded "
                    f"{transition.source.value}"
                )
            if (transition.source, transition.target) not in legal:
                violations.append(
                    f"breaker {label}: illegal edge "
                    f"{transition.source.value} -> {transition.target.value}"
                )
            if transition.at_s < last_at:
                violations.append(
                    f"breaker {label}: transitions out of order at "
                    f"t={transition.at_s:.6f}"
                )
            state = transition.target
            last_at = transition.at_s
        if breaker.state is not state:
            violations.append(
                f"breaker {label}: live state {breaker.state.value} does "
                f"not match replayed transition log ({state.value})"
            )
    return violations


def verify_service_log(service: Any, requests: Sequence[Any]) -> List[str]:
    """Check a served scenario against the service invariant suite.

    Returns human-readable violations (empty = pass):

    1. **Settled exactly once** — every submitted request id appears
       exactly once in the request log; nothing extra, nothing missing.
       A log that settled more than its window holds cannot show this,
       and is a violation itself.
    2. **Shedding is loud** — every shed request carries HTTP 429 (the
       adapter adds the ``Retry-After``); admission books balance
       (admitted + shed = submitted).
    3. **Deadlines hold** — each settled latency is at most the
       request's declared deadline (or the service default) + ε.
    4. **Status/outcome coherence** — stale serves are 200s flagged
       ``stale``; fresh serves never are.
    5. **Breaker history is lossless** — the recorded transition log
       replays to the live state using only legal edges.
    """
    from repro.service.resilience import DEADLINE_EPSILON_S, DEFAULT_DEADLINE_S

    violations: List[str] = []
    log = service.log
    if len(log) != len(log.records):
        violations.append(
            f"request log overflowed its window: {len(log)} settled, "
            f"{len(log.records)} kept; exactly-once cannot be proven "
            "past the window"
        )
    by_id = {request.request_id: request for request in requests}
    seen: Dict[str, int] = {}
    for record in log.records:
        seen[record.request_id] = seen.get(record.request_id, 0) + 1
    for request_id in sorted(by_id):
        count = seen.pop(request_id, 0)
        if count != 1:
            violations.append(
                f"request '{request_id}' settled {count} time(s); "
                "expected exactly 1"
            )
    for request_id in sorted(seen):
        violations.append(
            f"request '{request_id}' settled but was never submitted"
        )

    for record in log.records:
        request = by_id.get(record.request_id)
        if request is None:
            continue
        if record.settled_s < record.arrival_s:
            violations.append(
                f"request '{record.request_id}' settled before it arrived"
            )
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else DEFAULT_DEADLINE_S
        )
        if record.latency_s > deadline + DEADLINE_EPSILON_S:
            violations.append(
                f"request '{record.request_id}' latency "
                f"{record.latency_s:.6f}s exceeds deadline "
                f"{deadline:.6f}s + eps {DEADLINE_EPSILON_S:.6f}s"
            )
        if record.outcome == "shed" and record.status != 429:
            violations.append(
                f"shed request '{record.request_id}' answered with "
                f"{record.status}, not 429"
            )
        if record.outcome == "stale" and not (
            record.status == 200 and record.stale
        ):
            violations.append(
                f"stale serve '{record.request_id}' must be a 200 "
                "flagged stale"
            )
        if record.outcome == "ok" and record.stale:
            violations.append(
                f"fresh serve '{record.request_id}' is flagged stale"
            )

    submitted = len(requests)
    booked = service.bucket.admitted + service.bucket.shed
    duplicates = submitted - len(by_id)
    if booked + duplicates != submitted:
        violations.append(
            f"admission books do not balance: {service.bucket.admitted} "
            f"admitted + {service.bucket.shed} shed != {submitted} "
            "submitted"
        )

    violations.extend(_service_breaker_violations(service))
    return violations


@dataclass(frozen=True)
class ServiceChaosCase:
    """Outcome of one (seed, spec) service chaos case."""

    seed: int
    requests: int
    served: int
    shed: int
    stale_served: int
    breaker_opens: int
    injected: Tuple[Tuple[str, int], ...]
    replay_identical: bool
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.replay_identical and not self.violations


@dataclass(frozen=True)
class ServiceChaosReport:
    """One service campaign: per-seed cases plus the aggregate verdict."""

    spec: ServiceChaosSpec
    cases: Tuple[ServiceChaosCase, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for case in self.cases:
            out.extend(
                f"seed {case.seed}: {violation}"
                for violation in case.violations
            )
            if not case.replay_identical:
                out.append(f"seed {case.seed}: replay diverged")
        return out


def _serve_case(seed: int, spec: ServiceChaosSpec) -> Any:
    """Build and drive one fresh service for a (seed, spec) case."""
    from repro.service.app import PredictionService, serve_sequence
    from repro.service.backends import (
        BackendFaultSpec,
        ServiceBackend,
        ServiceFaultInjector,
    )
    from repro.service.workload import demo_profiles, generate_requests

    profiles = demo_profiles()
    injector = ServiceFaultInjector(
        seed + 1,
        BackendFaultSpec(
            slow_probability=spec.slow_probability,
            crash_probability=spec.crash_probability,
            corrupt_probability=spec.corrupt_probability,
        ),
    )
    service = PredictionService(
        profiles,
        backend=ServiceBackend(injector=injector),
        campaign_journals={"demo": "service-chaos-demo.journal"},
    )
    requests = generate_requests(
        seed,
        spec.requests,
        spec.rate_hz,
        sorted(profiles),
        tight_deadline_fraction=spec.tight_deadline_fraction,
    )
    serve_sequence(service, requests)
    return service, requests


def _service_log_bytes(service: Any) -> bytes:
    return canonical_json(service.log.to_dict()).encode("utf-8")


def run_service_campaign(
    seeds: Sequence[int],
    spec: Optional[ServiceChaosSpec] = None,
) -> ServiceChaosReport:
    """Sweep seeds through the service chaos suite.

    Each seed generates a workload and a backend fault stream, serves
    the scenario on a fresh virtual-clock service, verifies the
    invariant suite, then serves the identical (seed, spec) pair on a
    second fresh service and compares the canonical request logs byte
    for byte.
    """
    if not seeds:
        raise ConfigurationError(
            "service chaos campaign needs at least one seed"
        )
    spec = spec if spec is not None else ServiceChaosSpec()
    cases: List[ServiceChaosCase] = []
    for seed in seeds:
        service, requests = _serve_case(seed, spec)
        violations = verify_service_log(service, requests)
        replay_service, _ = _serve_case(seed, spec)
        summary = service.log.summary()
        injected = (
            service.backend.injector.injected
            if service.backend.injector is not None
            else {}
        )
        cases.append(
            ServiceChaosCase(
                seed=seed,
                requests=len(requests),
                served=summary["served"],
                shed=summary["shed"],
                stale_served=summary["stale_served"],
                breaker_opens=service.breakers.total_opens(),
                injected=tuple(sorted(injected.items())),
                replay_identical=(
                    _service_log_bytes(service)
                    == _service_log_bytes(replay_service)
                ),
                violations=tuple(violations),
            )
        )
    return ServiceChaosReport(spec=spec, cases=tuple(cases))
