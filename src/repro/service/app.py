"""The prediction service: four endpoints behind one resilience pipeline.

:class:`PredictionService` exposes the existing prediction core as a
long-running shared service — ``predict``, ``what-if`` and
``campaign-status`` — and wraps *every* request in the same pipeline
(DESIGN.md §15)::

    admission (token bucket, 429 + Retry-After)
      → deadline budget (absolute, checked by every later stage)
        → circuit breaker (per (app, cluster), around evaluation; 503)
          → backend evaluation (bounded retries within the budget)
            → graceful degradation (last-known-good, marked stale)

The service's contract, checked by the chaos harness
(:mod:`repro.faults.chaos`):

- every request is answered and *settled exactly once* in the request
  log — shed requests get a 429 with a deterministic ``Retry-After``,
  never a silent drop;
- a settled request's modeled latency never exceeds its declared
  deadline + ε;
- the entire request log replays byte-identically for the same
  ``(seed, scenario)`` pair under a :class:`VirtualClock`.

``broker-submit`` is the fourth endpoint class: it keeps its share of
the seeded request mix, and is answered ``501 unconfigured`` because no
broker runs behind this service.

The service itself is single-threaded and deterministic; the HTTP
shell (:mod:`repro.service.http`) serializes real concurrent
connections in front of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import GlobalReductionModel, ModelClasses
from repro.core.durable import content_digest, json_number
from repro.core.fingerprint import (
    cluster_fingerprint,
    prediction_fingerprint,
    profile_fingerprint,
)
from repro.core.models import PredictionModel
from repro.core.predcache import PredictionCache
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.errors import InternalError
from repro.middleware.scheduler import RunConfig
from repro.service.backends import ServiceBackend
from repro.service.clock import ServiceClock, VirtualClock
from repro.service.errors import AdmissionError, BackendError, CircuitOpenError
from repro.service.resilience import (
    BREAKER_COOLDOWN,
    BREAKER_FAILURE_THRESHOLD,
    DEFAULT_DEADLINE_S,
    DEGRADED_COST_S,
    RETRY,
    BreakerBank,
    BreakerState,
    DeadlineBudget,
    ResilienceConfig,
    TokenBucket,
)
from repro.simgrid.errors import ConfigurationError
from repro.workloads.clusters import CLUSTERS, DEFAULT_BANDWIDTH
from repro.workloads.registry import WORKLOADS

__all__ = [
    "ENDPOINTS",
    "ServiceRequest",
    "ServiceResponse",
    "RequestRecord",
    "RequestLog",
    "PredictionService",
    "serve_sequence",
]

#: The service's endpoint classes.
ENDPOINTS = ("predict", "what-if", "broker-submit", "campaign-status")

_LOG_FORMAT_VERSION = 1

#: The parameters each handler reads, so the fields of its request key.
_PREDICT_FIELDS = (
    "profile", "cluster", "bandwidth", "data_nodes", "compute_nodes",
    "processes_per_node", "dataset_bytes",
)
_WHATIF_FIELDS = ("profile", "cluster", "bandwidth", "pairs")
_ABSENT = object()  # an absent field keys apart from any value
_SCALARS = frozenset({str, int, float, bool, type(None), type(_ABSENT)})


def _typed(values: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
    """The exact type of each of ``values``, then the values themselves,
    a list or tuple typed item by item: one flat tuple.

    ``True == 1`` and ``2 == 2.0`` in Python, so bare values would key
    a refused request onto a served one.  Only JSON's own types key; any
    other (a dict, a subclass) gives ``None``, and such a request is
    resolved afresh.  The one pair of distinct JSON values still equal,
    ``0.0`` and ``-0.0``, fails every numeric field's validation and so
    is never stored.
    """
    kinds = tuple(map(type, values))
    if _SCALARS.issuperset(kinds):
        return kinds + tuple(values)
    typed = []
    for kind, value in zip(kinds, values):
        if kind is list or kind is tuple:
            value = _typed(value)
            if value is None:
                return None
        elif kind not in _SCALARS:
            return None
        typed.append(value)
    return kinds + tuple(typed)


class _Resolved(NamedTuple):
    """What a predict or what-if request derives before ``_evaluate``."""

    profile: Profile
    model: PredictionModel
    target: PredictionTarget  # what-if: the template at the profile's size
    pairs: Tuple[Tuple[int, int], ...]  # what-if only
    fingerprint: str


@dataclass(frozen=True)
class ServiceRequest:
    """One inbound request.

    ``arrival_s`` defaults to the service clock's now; the chaos
    harness sets it explicitly so a scenario is a pure data artifact.
    ``deadline_s`` is the request's *budget* (seconds from arrival);
    ``None`` uses :data:`~repro.service.resilience.DEFAULT_DEADLINE_S`.
    """

    request_id: str
    endpoint: str
    params: Mapping[str, Any] = field(default_factory=dict)
    arrival_s: Optional[float] = None
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ServiceResponse:
    """The answer to one request, with its settlement bookkeeping."""

    request_id: str
    endpoint: str
    status: int
    outcome: str
    body: Dict[str, Any]
    arrival_s: float
    settled_s: float
    stale: bool = False
    retries: int = 0
    retry_after_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        return self.settled_s - self.arrival_s


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """The log's view of one settled request (slotted: the log's window
    holds thousands)."""

    request_id: str
    endpoint: str
    arrival_s: float
    settled_s: float
    status: int
    outcome: str
    stale: bool
    retries: int

    @property
    def latency_s(self) -> float:
        return self.settled_s - self.arrival_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "arrival_s": self.arrival_s,
            "settled_s": self.settled_s,
            "latency_s": self.latency_s,
            "status": self.status,
            "outcome": self.outcome,
            "stale": self.stale,
            "retries": self.retries,
        }


class RequestLog:
    """Settlement ledger in constant memory; the replay-compared artifact.

    The log keeps the last :attr:`WINDOW` records in a ring, and exact
    running counters over every request it has settled: the count, per
    outcome, per status, and the largest latency.  Exactly-once is
    enforced structurally inside the window: settling a request id the
    ring still holds raises :class:`~repro.errors.InternalError` — a
    service bug, not a client error.  Every seeded or virtual-clock
    artefact settles fewer requests than the window, so there
    :attr:`records` is the whole log.
    """

    #: Records kept, and the span over which a settled id is remembered.
    WINDOW = 4096

    def __init__(self) -> None:
        self.records: Deque[RequestRecord] = deque(maxlen=self.WINDOW)
        self._settled_ids: set[str] = set()
        self._settled = 0
        self._by_outcome: Dict[str, int] = {}
        self._by_status: Dict[str, int] = {}
        self._max_latency_s = 0.0

    def __len__(self) -> int:
        """Requests settled so far, including those the window dropped."""
        return self._settled

    def __contains__(self, request_id: object) -> bool:
        return request_id in self._settled_ids

    def settle(self, record: RequestRecord) -> None:
        if record.request_id in self._settled_ids:
            raise InternalError(
                f"request '{record.request_id}' settled twice — the "
                "exactly-once invariant is broken"
            )
        if len(self.records) == self.WINDOW:
            self._settled_ids.discard(self.records[0].request_id)
        self.records.append(record)
        self._settled_ids.add(record.request_id)
        self._settled += 1
        outcome, status = record.outcome, str(record.status)
        self._by_outcome[outcome] = self._by_outcome.get(outcome, 0) + 1
        self._by_status[status] = self._by_status.get(status, 0) + 1
        self._max_latency_s = max(self._max_latency_s, record.latency_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": _LOG_FORMAT_VERSION,
            "records": [record.to_dict() for record in self.records],
        }

    def summary(self) -> Dict[str, Any]:
        """Deterministic numeric rollup (the benchmark's raw material):
        exact counts, p50/p99 over the window."""
        by_outcome, by_status = self._by_outcome, self._by_status
        latencies = sorted(record.latency_s for record in self.records)
        total = self._settled
        served = by_outcome.get("ok", 0) + by_outcome.get("stale", 0)
        return {
            "requests": total,
            "by_outcome": {k: by_outcome[k] for k in sorted(by_outcome)},
            "by_status": {k: by_status[k] for k in sorted(by_status)},
            "served": served,
            "shed": by_outcome.get("shed", 0),
            "stale_served": by_outcome.get("stale", 0),
            "shed_rate": (by_outcome.get("shed", 0) / total) if total else 0.0,
            "stale_rate": (
                by_outcome.get("stale", 0) / total
            ) if total else 0.0,
            "p50_latency_s": _percentile(latencies, 0.50),
            "p99_latency_s": _percentile(latencies, 0.99),
            "max_latency_s": self._max_latency_s,
        }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


class PredictionService:
    """Prediction-as-a-service over the existing core (see module doc).

    Parameters
    ----------
    profiles:
        Named reference profiles the ``predict`` / ``what-if``
        endpoints resolve against (``repro serve`` passes
        :func:`~repro.service.workload.demo_profiles`).
    clock:
        Time source; defaults to a fresh deterministic
        :class:`~repro.service.clock.VirtualClock`.
    config:
        Admission control (the pipeline's one caller-set knob).
    backend:
        The evaluation door — pass one with a seeded fault injector to
        run a chaos scenario.
    campaign_journals:
        ``name -> journal path`` map behind ``campaign-status``.
    cache:
        Last-known-good prediction store for graceful degradation.
    """

    def __init__(
        self,
        profiles: Mapping[str, Profile],
        *,
        clock: Optional[ServiceClock] = None,
        config: Optional[ResilienceConfig] = None,
        backend: Optional[ServiceBackend] = None,
        campaign_journals: Optional[Mapping[str, str]] = None,
        cache: Optional[PredictionCache] = None,
    ) -> None:
        self.profiles = dict(profiles)
        self.clock = clock if clock is not None else VirtualClock()
        self.config = config if config is not None else ResilienceConfig()
        self.backend = backend if backend is not None else ServiceBackend()
        self.campaign_journals = dict(campaign_journals or {})
        self.cache = cache if cache is not None else PredictionCache()
        self.log = RequestLog()
        self.bucket = TokenBucket(
            self.config.admission_rate, self.config.admission_burst
        )
        self.breakers = BreakerBank(BREAKER_FAILURE_THRESHOLD, BREAKER_COOLDOWN)
        self._models: Dict[str, PredictionModel] = {}
        # One ``_Resolved`` per distinct request answered fresh, oldest
        # evicted first, bounded like the prediction cache it feeds.
        self._resolved: Dict[Hashable, _Resolved] = {}
        # Request-invariant, so computed here once: the named clusters
        # and the content digests the cache key is built from
        # (``profiles`` is therefore fixed at construction).  What one
        # request derives from them is kept in ``_resolved``.
        self._clusters = {name: make() for name, make in CLUSTERS.items()}
        self._cluster_digests = {
            name: cluster_fingerprint(cluster)
            for name, cluster in self._clusters.items()
        }
        self._profile_digests = {
            name: profile_fingerprint(profile)
            for name, profile in self.profiles.items()
        }

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _model_for(self, app: str) -> PredictionModel:
        model = self._models.get(app)
        if model is None:
            spec = WORKLOADS.get(app)
            if spec is not None:
                classes = ModelClasses.parse(
                    spec.natural_object_class, spec.natural_global_class
                )
            else:
                classes = ModelClasses.parse("constant", "linear-constant")
            model = GlobalReductionModel(classes)
            self._models[app] = model
        return model

    def _settle(
        self,
        request: ServiceRequest,
        arrival: float,
        settled: float,
        status: int,
        outcome: str,
        body: Dict[str, Any],
        *,
        stale: bool = False,
        retries: int = 0,
        retry_after_s: Optional[float] = None,
    ) -> ServiceResponse:
        self.log.settle(
            RequestRecord(
                request_id=request.request_id,
                endpoint=request.endpoint,
                arrival_s=arrival,
                settled_s=settled,
                status=status,
                outcome=outcome,
                stale=stale,
                retries=retries,
            )
        )
        return ServiceResponse(
            request_id=request.request_id,
            endpoint=request.endpoint,
            status=status,
            outcome=outcome,
            body=body,
            arrival_s=arrival,
            settled_s=settled,
            stale=stale,
            retries=retries,
            retry_after_s=retry_after_s,
        )

    def _reject(
        self,
        request: ServiceRequest,
        arrival: float,
        message: str,
        status: int = 400,
        outcome: str = "rejected",
    ) -> ServiceResponse:
        return self._settle(
            request,
            arrival,
            arrival + DEGRADED_COST_S,
            status,
            outcome,
            {"error": message},
        )

    def _degrade(
        self,
        request: ServiceRequest,
        arrival: float,
        fingerprint: str,
        reason: str,
        refusal_status: int,
        message: str,
        *,
        at_s: Optional[float] = None,
        retries: int = 0,
    ) -> ServiceResponse:
        """Serve last-known-good if we have it; otherwise refuse loudly."""
        settled = (at_s if at_s is not None else arrival) + DEGRADED_COST_S
        entry = self.cache.get(fingerprint)
        if entry is not None:
            body = dict(entry.payload)
            body["stale"] = True
            body["stale_age_s"] = entry.age_s(settled)
            body["degraded_reason"] = reason
            return self._settle(
                request, arrival, settled, 200, "stale", body,
                stale=True, retries=retries,
            )
        return self._settle(
            request,
            arrival,
            settled,
            refusal_status,
            reason,
            {"error": message, "degraded_reason": reason},
            retries=retries,
        )

    def _evaluate(
        self,
        request: ServiceRequest,
        arrival: float,
        budget: DeadlineBudget,
        fingerprint: str,
        estimated_cost_s: float,
        call: Any,
        *,
        breaker_key: Optional[Tuple[str, str]] = None,
    ) -> ServiceResponse:
        """The breaker → retry → degrade tail of the pipeline.

        ``call`` performs one backend attempt and returns
        ``(payload, cost_s)``; failures raise
        :class:`~repro.service.errors.BackendError` with the attempt's
        cost attached.  Costs are prices in simulated time; what an
        attempt or a retry backoff is *charged* is the clock's call (the
        price on a :class:`VirtualClock`, the time it took on a real one,
        where nothing sleeps), while ``estimated_cost_s`` and the backoff
        the retry check adds stay prices on both — conservative upper
        bounds for the admission checks.
        """
        # Refuse before calling the backend when even a clean attempt
        # cannot finish inside the budget.
        if not budget.allows(arrival, estimated_cost_s):
            return self._degrade(
                request, arrival, fingerprint, "deadline", 504,
                f"deadline budget of {budget.deadline_s - arrival:.6f}s "
                "cannot be met",
            )
        breaker = (
            self.breakers.breaker(*breaker_key) if breaker_key else None
        )
        if breaker is not None:
            try:
                breaker.allow(arrival)
            except CircuitOpenError as exc:
                return self._degrade(
                    request, arrival, fingerprint, "breaker-open", 503,
                    str(exc),
                )

        spent = 0.0
        retries = 0
        for attempt in range(1, RETRY.max_attempts + 1):
            began = self.clock.now()
            try:
                payload, cost = call()
            except BackendError as exc:
                spent += self.clock.charge(exc.cost_s, began)
                if breaker is not None:
                    breaker.record_failure(min(arrival + spent, budget.deadline_s))
                backoff = RETRY.backoff_s(attempt)
                can_retry = (
                    attempt < RETRY.max_attempts
                    # Only a CLOSED breaker lets a retry through: one its
                    # own failures just opened must stop it, and allow()
                    # would consume the half-open probe (a phantom
                    # transition) rather than merely ask.
                    and (breaker is None or breaker.state is BreakerState.CLOSED)
                    and budget.allows(
                        arrival, spent + backoff + estimated_cost_s
                    )
                )
                if can_retry:
                    spent += self.clock.charge(backoff, self.clock.now())
                    retries += 1
                    continue
                return self._degrade(
                    request, arrival, fingerprint, "backend-error", 500,
                    f"backend failed after {attempt} attempt(s): {exc}",
                    at_s=min(arrival + spent, budget.deadline_s),
                    retries=retries,
                )
            spent += self.clock.charge(cost, began)
            end = arrival + spent
            if end > budget.deadline_s:
                # The work finished, but past the deadline: the call is
                # abandoned at the deadline (the client is gone), and
                # the breaker counts the timeout as a failure.
                if breaker is not None:
                    breaker.record_failure(budget.deadline_s)
                return self._degrade(
                    request, arrival, fingerprint, "deadline", 504,
                    "backend exceeded the deadline budget",
                    at_s=budget.deadline_s,
                    retries=retries,
                )
            if breaker is not None:
                breaker.record_success(end)
            self.cache.put(fingerprint, payload, end)
            body = dict(payload)
            body["stale"] = False
            return self._settle(
                request, arrival, end, 200, "ok", body, retries=retries
            )
        raise InternalError("retry loop exited without settling")

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------

    def _resolve_profile(
        self, params: Mapping[str, Any]
    ) -> Tuple[Profile, str]:
        """The named profile and its content digest."""
        name = params.get("profile")
        if not isinstance(name, str) or name not in self.profiles:
            known = ", ".join(sorted(self.profiles)) or "(none)"
            raise ConfigurationError(
                f"unknown profile {name!r}; known profiles: {known}"
            )
        return self.profiles[name], self._profile_digests[name]

    def _resolve_config(
        self,
        params: Mapping[str, Any],
        data_nodes: int = 1,
        compute_nodes: int = 1,
        processes_per_node: int = 1,
    ) -> Tuple[RunConfig, str]:
        """The named cluster at the requested bandwidth, and its digest."""
        name = str(params.get("cluster", "pentium-myrinet"))
        cluster = self._clusters.get(name)
        if cluster is None:
            raise ConfigurationError(
                f"unknown cluster '{name}'; known: {sorted(self._clusters)}"
            )
        config = RunConfig(
            storage_cluster=cluster,
            compute_cluster=cluster,
            data_nodes=data_nodes,
            compute_nodes=compute_nodes,
            bandwidth=json_number(
                "bandwidth", params.get("bandwidth", DEFAULT_BANDWIDTH)
            ),
            processes_per_node=processes_per_node,
        )
        return config, self._cluster_digests[name]

    def _resolve(
        self,
        request: ServiceRequest,
        fields: Tuple[str, ...],
        resolve: Callable[[Mapping[str, Any]], _Resolved],
    ) -> Tuple[Optional[Hashable], _Resolved]:
        """``resolve(request.params)``, once per distinct request answered.

        The key is the endpoint and the typed value of every field the
        handler reads.  Returns it beside the resolution when the request
        is new (for :meth:`_remember`), ``None`` when it was remembered
        or cannot be keyed; a refusal is raised by ``resolve`` itself.
        """
        params = request.params
        key = _typed(
            [request.endpoint] + [params.get(name, _ABSENT) for name in fields]
        )
        if key is None:
            return None, resolve(params)
        resolved = self._resolved.get(key)
        if resolved is not None:
            return None, resolved
        return key, resolve(params)

    def _remember(
        self,
        key: Optional[Hashable],
        resolved: _Resolved,
        response: ServiceResponse,
    ) -> ServiceResponse:
        """Keep ``resolved`` once its request is answered fresh, as the
        prediction cache keeps the payload: what a refused request
        derived, however many pairs it holds, is dropped."""
        if key is not None and response.outcome == "ok":
            if len(self._resolved) >= self.cache.max_entries:
                del self._resolved[next(iter(self._resolved))]
            self._resolved[key] = resolved
        return response

    def _resolve_predict(self, params: Mapping[str, Any]) -> _Resolved:
        profile, profile_digest = self._resolve_profile(params)
        config, cluster_digest = self._resolve_config(
            params,
            json_number("data_nodes", params.get("data_nodes"), True),
            json_number("compute_nodes", params.get("compute_nodes"), True),
            json_number(
                "processes_per_node",
                params.get("processes_per_node", 1),
                True,
            ),
        )
        target = PredictionTarget(
            config,
            json_number(
                "dataset_bytes",
                params.get("dataset_bytes", profile.dataset_bytes),
            ),
        )
        model = self._model_for(profile.app)
        fingerprint = prediction_fingerprint(
            profile_digest, cluster_digest, cluster_digest, target,
            model.label,
        )
        return _Resolved(profile, model, target, (), fingerprint)

    def _handle_predict(
        self, request: ServiceRequest, arrival: float, budget: DeadlineBudget
    ) -> ServiceResponse:
        try:
            key, resolved = self._resolve(
                request, _PREDICT_FIELDS, self._resolve_predict
            )
        except ConfigurationError as exc:
            return self._reject(request, arrival, str(exc))
        profile, model, target, _, fingerprint = resolved

        def call() -> Tuple[Dict[str, Any], float]:
            payload, cost = self.backend.predict(model, profile, target)
            payload["fingerprint"] = fingerprint
            payload["app"] = profile.app
            payload["target"] = target.label
            return payload, cost

        return self._remember(key, resolved, self._evaluate(
            request,
            arrival,
            budget,
            fingerprint,
            self.backend.cost_model.predict_s,
            call,
            breaker_key=(profile.app, target.config.compute_cluster.name),
        ))

    def _resolve_whatif(self, params: Mapping[str, Any]) -> _Resolved:
        profile, profile_digest = self._resolve_profile(params)
        pairs_raw = params.get("pairs")
        if not isinstance(pairs_raw, (list, tuple)) or not pairs_raw:
            raise ConfigurationError(
                "what-if needs a non-empty 'pairs' list of "
                "[data_nodes, compute_nodes]"
            )
        pairs = tuple(
            (json_number("pairs", n, True), json_number("pairs", c, True))
            for n, c in pairs_raw
        )
        template, cluster_digest = self._resolve_config(params)
        for n, c in pairs:  # refuse here what the sweep would raise on
            template.with_nodes(n, c)
        model = self._model_for(profile.app)
        target = PredictionTarget(
            config=template, dataset_bytes=profile.dataset_bytes
        )
        fingerprint = prediction_fingerprint(
            profile_digest,
            cluster_digest,
            cluster_digest,
            target,
            model.label,
            extra=(("endpoint", "what-if"), ("pairs", [list(p) for p in pairs])),
        )
        return _Resolved(profile, model, target, pairs, fingerprint)

    def _handle_whatif(
        self, request: ServiceRequest, arrival: float, budget: DeadlineBudget
    ) -> ServiceResponse:
        try:
            key, resolved = self._resolve(
                request, _WHATIF_FIELDS, self._resolve_whatif
            )
        except (ConfigurationError, TypeError, ValueError) as exc:
            return self._reject(request, arrival, str(exc))
        profile, model, target, pairs, fingerprint = resolved
        template = target.config

        def call() -> Tuple[Dict[str, Any], float]:
            forecasts, cost = self.backend.whatif(
                model, profile, template, pairs
            )
            best = min(forecasts, key=lambda f: f["predicted_total"])
            payload: Dict[str, Any] = {
                "app": profile.app,
                "forecasts": forecasts,
                "recommended": best["label"],
                "fingerprint": fingerprint,
            }
            return payload, cost

        return self._remember(key, resolved, self._evaluate(
            request,
            arrival,
            budget,
            fingerprint,
            self.backend.cost_model.whatif_pair_s * len(pairs),
            call,
            breaker_key=(profile.app, template.compute_cluster.name),
        ))

    def _handle_broker_submit(
        self, request: ServiceRequest, arrival: float, budget: DeadlineBudget
    ) -> ServiceResponse:
        return self._reject(
            request, arrival,
            "no broker is configured behind this service",
            status=501, outcome="unconfigured",
        )

    def _handle_campaign_status(
        self, request: ServiceRequest, arrival: float, budget: DeadlineBudget
    ) -> ServiceResponse:
        name = request.params.get("campaign")
        if not isinstance(name, str) or name not in self.campaign_journals:
            known = ", ".join(sorted(self.campaign_journals)) or "(none)"
            return self._reject(
                request, arrival,
                f"unknown campaign {name!r}; known campaigns: {known}",
            )
        journal_path = self.campaign_journals[name]
        fingerprint = content_digest(
            {"endpoint": "campaign-status", "campaign": name}
        )

        def call() -> Tuple[Dict[str, Any], float]:
            payload, cost = self.backend.campaign_status(journal_path)
            payload = dict(payload)
            payload["campaign"] = name
            return payload, cost

        return self._evaluate(
            request,
            arrival,
            budget,
            fingerprint,
            self.backend.cost_model.status_s,
            call,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Run one request through the full resilience pipeline."""
        arrival = (
            request.arrival_s
            if request.arrival_s is not None
            else self.clock.now()
        )
        if request.request_id in self.log:
            # Answered without re-settling: the log stays exactly-once.
            return ServiceResponse(
                request_id=request.request_id,
                endpoint=request.endpoint,
                status=409,
                outcome="duplicate",
                body={"error": f"request id '{request.request_id}' was "
                      "already settled"},
                arrival_s=arrival,
                settled_s=arrival + DEGRADED_COST_S,
            )
        if request.endpoint not in ENDPOINTS:
            return self._reject(
                request, arrival,
                f"unknown endpoint '{request.endpoint}'; known: "
                f"{', '.join(ENDPOINTS)}",
                status=404,
            )
        try:
            self.bucket.admit(arrival)
        except AdmissionError as exc:
            return self._settle(
                request,
                arrival,
                arrival + DEGRADED_COST_S,
                429,
                "shed",
                {
                    "error": "service over capacity; request shed",
                    "retry_after_s": exc.retry_after_s,
                },
                retry_after_s=exc.retry_after_s,
            )
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else DEFAULT_DEADLINE_S
        )
        try:
            budget = DeadlineBudget.begin(arrival, deadline_s)
        except ConfigurationError as exc:
            return self._reject(request, arrival, str(exc))
        handler = {
            "predict": self._handle_predict,
            "what-if": self._handle_whatif,
            "broker-submit": self._handle_broker_submit,
            "campaign-status": self._handle_campaign_status,
        }[request.endpoint]
        return handler(request, arrival, budget)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """One deterministic dict of everything a dashboard would want."""
        out = self.log.summary()
        out["admission"] = {
            "admitted": self.bucket.admitted,
            "shed": self.bucket.shed,
        }
        out["breakers"] = {
            "opens": self.breakers.total_opens(),
            "states": self.breakers.snapshot(),
        }
        out["cache"] = {
            "entries": len(self.cache),
            "stores": self.cache.stores,
            "evictions": self.cache.evictions,
        }
        if self.backend.injector is not None:
            out["injected_faults"] = dict(self.backend.injector.injected)
        return out


def serve_sequence(
    service: PredictionService, requests: Sequence[ServiceRequest]
) -> List[ServiceResponse]:
    """Drive a scenario: requests in arrival order on a virtual clock.

    Each request's ``arrival_s`` must be set and non-decreasing; the
    service clock is advanced to it before handling, so admission
    refill, breaker cool-downs, and cache ages all see scenario time.
    """
    clock = service.clock
    if not isinstance(clock, VirtualClock):
        raise ConfigurationError(
            "serve_sequence needs a service on a VirtualClock"
        )
    responses: List[ServiceResponse] = []
    for request in requests:
        if request.arrival_s is None:
            raise ConfigurationError(
                f"request '{request.request_id}' has no arrival_s; "
                "scenario requests must carry explicit arrival times"
            )
        clock.advance_to(request.arrival_s)
        responses.append(service.handle(request))
    return responses
