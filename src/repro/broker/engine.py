"""The prediction-guided grid broker.

:class:`GridBroker` closes the loop the paper motivates: a *stream* of
FREERIDE-G jobs arrives over simulated time and contends for cluster
nodes, and each job is placed on a (replica site, compute configuration)
pair chosen by a pluggable policy over the prediction framework's
one-profile estimates.  The broker is a discrete-event simulation:

1. **Arrival** — the job is admission-checked: the
   :class:`~repro.core.selection.ResourceSelector` enumerates its
   full-capacity candidates (an infeasible job is rejected with the
   selector's machine-usable rejection reasons) and the policy may
   refuse it outright (deadline admission control).  Admitted jobs enter
   the wait queue, ordered by priority then arrival.
2. **Placement** — whenever an event fires, the broker tries to place
   the queue head on the candidates that fit the *currently free* nodes
   (no backfilling: a blocked head blocks the queue, which keeps the
   simulation fair and the scheduling property provable).  The policy
   sees calibrated predictions, so its completion estimate is realized
   queue wait + :math:`\\hat T_{exec}`.
3. **Execution** — the placement runs for real on the simulated
   middleware (:class:`~repro.middleware.runtime.FreerideGRuntime`);
   identical (dataset, configuration) runs are memoized, which is sound
   because the middleware is deterministic.
4. **Completion** — nodes are released and the *observed* component
   times are fed to the :class:`~repro.broker.calibration.OnlineCalibrator`,
   so later placements of the same (app, site) use corrected estimates.
   Online calibration replaces the paper's measured cross-cluster
   scaling factors with factors learned from the stream itself.

When :meth:`run` is handed a
:class:`~repro.faults.grid.GridFaultSchedule`, the simulation gains grid
weather: site outages and node-pool shrinks quiesce capacity and preempt
the attempts running on it, WAN degradations stretch the network time of
placements whose replica-to-compute path crosses the degraded edge, and
transient job failures abort individual attempts mid-flight.  Every
preempted job goes through the run's
:class:`~repro.broker.recovery.RecoveryPolicy` — resubmit-elsewhere or
checkpoint-aware migration, both under the bounded
:class:`~repro.faults.retry.RetryPolicy` budget — until it either
completes or is terminally failed and classified in the report.

Every data structure iterates in a deterministic order, so replaying
the same job stream (and the same fault schedule) yields a
byte-identical :class:`BrokerReport`; a fault-free run serializes
byte-identically to a broker without the fault model.

One run's mutable state is a ``_BrokerRun`` with one handler per
:class:`~repro.broker.events.EventKind`: :meth:`GridBroker.run` pops
each event, calls the handler its kind indexes, and then serves the
wait-queue head.  Every :class:`BrokerPlacement`,
:class:`BrokerRejection`, :class:`BrokerPreemption` and
:class:`TerminalFailure` of a run is built in exactly one of its
methods.

Placement has one path, with or without faults: a decision scores the
feasible candidates as bare floats, the policy's
:meth:`~repro.broker.policies.PlacementPolicy.choose_index` picks one,
and a :class:`~repro.broker.policies.PlacementOption` is built for the
winner alone.  A job with no resume state, while no WAN degradation is
active, is scored with
:meth:`~repro.broker.calibration.OnlineCalibrator.correct_total`; any
other job with :func:`~repro.broker.policies.attempt_total`, the formula
the option itself uses.  Admission control reads the same totals.

The event loop is sized for six-figure trace streams: binary-heap event
and wait queues, calibrated scoring as three factor-table lookups and
no intermediate breakdown, and an O(1)-amortized
blocked-head check — a queue head that found no feasible candidate is
not re-evaluated until :attr:`~repro.broker.events.GridLedger.version`
moves (feasibility depends only on free node counts, which every
capacity change version-bumps).

The queues grow with the stream; a site's pool is tens of nodes
whatever the stream's length, so a :class:`~repro.broker.events.SitePool`
is a sorted free list with one history record per grant rather than per
node, and the per-node reservation windows are derived from
:attr:`GridBroker.last_ledger` only when a test or the chaos invariant
suite asks for them.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.broker.calibration import OnlineCalibrator
from repro.broker.events import Event, EventKind, EventQueue, GridLedger
from repro.broker.jobs import (
    BrokerJob,
    BrokerWorkloadDoc,
    require_unique_ids,
    sorted_jobs,
)
from repro.broker.policies import (
    POLICY_NAMES,
    PlacementOption,
    Rejection,
    attempt_total,
    make_policy,
)
from repro.broker.recovery import GiveUp, Incident, Requeue, make_recovery
from repro.hotpath import hot
from repro.broker.report import (
    BrokerPlacement,
    BrokerPreemption,
    BrokerRejection,
    BrokerReport,
    GridFaultEvent,
    PolicyRun,
    TerminalFailure,
)
from repro.core.classes import ModelClasses
from repro.core.degraded import DegradedModePredictor
from repro.core.models import (
    GlobalReductionModel,
    PredictedBreakdown,
    PredictionModel,
)
from repro.core.profile import Profile
from repro.core.selection import (
    InfeasibleSelectionError,
    ResourceSelector,
    SelectionCandidate,
    SelectionOutcome,
)
from repro.core.target import PredictionTarget
from repro.faults.grid import (
    GridFaultSchedule,
    NodePoolShrink,
    SiteOutage,
    WanDegradation,
)
from repro.faults.retry import RetryPolicy
from repro.middleware.dataset import Dataset
from repro.middleware.kernels import KernelBook, KernelTrace
from repro.middleware.replica import ReplicaCatalog
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.topology import GridTopology, SiteKind
from repro.simgrid.trace import TimeBreakdown
from repro.workloads.registry import WORKLOADS, WorkloadSpec
from repro.workloads.traces.generate import StreamSpec, generate_stream

__all__ = ["GridBroker", "ActualRun"]

#: What the broker caches a dataset's artefacts under: (workload, size
#: label), with no size resolved to the workload's default, so ``kmeans``
#: and ``kmeans@1.4 GB`` are one dataset with one kernel trace.
DatasetKey = Tuple[str, str]


@dataclass(frozen=True, slots=True)
class ActualRun:
    """Observed component times of one executed placement."""

    t_disk: float
    t_network: float
    t_compute: float
    num_passes: int = 1

    @property
    def total(self) -> float:
        return self.t_disk + self.t_network + self.t_compute

    @property
    def components(self) -> Tuple[float, float, float]:
        return (self.t_disk, self.t_network, self.t_compute)


@dataclass(slots=True, eq=False)
class _Attempt:
    """One placed attempt: the running entry and its completion payload."""

    attempt_id: int
    #: 1 for a job's first attempt, +1 per torn-down predecessor.
    number: int
    job: BrokerJob
    option: PlacementOption
    data_node_ids: Tuple[int, ...]
    compute_node_ids: Tuple[int, ...]
    start: float
    end: float
    #: The observed run with the WAN stretch applied; its ``total`` is
    #: the effective full-run duration of this placement.
    actual: ActualRun

    @property
    def progress_before(self) -> float:
        """Work fraction already done when the attempt started."""
        return 1.0 - self.option.remaining_fraction

    def uses_site(self, site: str) -> bool:
        cand = self.option.candidate
        return site in (cand.replica_site, cand.compute_site)

    def uses_node(self, site: str, nodes: Sequence[int]) -> bool:
        cand = self.option.candidate
        victims = set(nodes)
        if cand.replica_site == site and victims.intersection(
            self.data_node_ids
        ):
            return True
        return cand.compute_site == site and bool(
            victims.intersection(self.compute_node_ids)
        )

    def progress_at(self, when: float) -> float:
        """Total work fraction done by ``when`` (charge paid first)."""
        charge = self.option.resume_charge
        executed = max(0.0, min(when, self.end) - self.start - charge)
        full_total = self.actual.total
        if full_total <= 0.0:
            return self.progress_before
        return min(1.0, self.progress_before + executed / full_total)

    def checkpoint_at(self, when: float) -> float:
        """Progress quantized down to a completed-pass boundary."""
        passes = self.actual.num_passes
        if passes <= 0:
            return 0.0
        return int(self.progress_at(when) * passes) / passes


class _Resume(NamedTuple):
    """What a preempted job carries into its next attempt."""

    #: Work fraction already done.
    progress: float
    #: Whether the next attempt pays T_recover.
    charge: bool
    #: Attempts torn down so far (drives the retry budget).
    failed_attempts: int


_FRESH = _Resume(progress=0.0, charge=False, failed_attempts=0)


class GridBroker:
    """Places a stream of jobs on a grid using calibrated predictions.

    Parameters
    ----------
    topology:
        The grid (repository + compute sites with annotated links).
    allocations:
        Candidate ``(data_nodes, compute_nodes)`` pairs per site pair.
    replicas:
        Optional ``dataset-key -> [repository sites]`` placement map
        (keys as :attr:`BrokerJob.dataset_key`); by default every
        repository site holds every dataset.
    profile_cluster:
        Hardware the one-off 1-1 reference profiles are collected on
        (default: the paper's Pentium/Myrinet testbed).  Predictions for
        other machine types carry systematic error that the online
        calibration layer then learns away.
    alpha:
        Exponential weight of the calibrator (see
        :class:`~repro.broker.calibration.OnlineCalibrator`).
    """

    def __init__(
        self,
        topology: GridTopology,
        allocations: Sequence[Tuple[int, int]],
        *,
        replicas: Optional[Mapping[str, Sequence[str]]] = None,
        profile_cluster: Optional[ClusterSpec] = None,
        alpha: float = 0.3,
    ) -> None:
        if not allocations:
            raise ConfigurationError("need at least one candidate allocation")
        if not list(topology.sites(SiteKind.COMPUTE)):
            raise ConfigurationError("broker grid has no compute sites")
        if not list(topology.sites(SiteKind.REPOSITORY)):
            raise ConfigurationError("broker grid has no repository sites")
        self.topology = topology
        self.allocations = list(allocations)
        self._replica_map = {
            key: list(sites) for key, sites in (replicas or {}).items()
        }
        if profile_cluster is None:
            from repro.workloads.clusters import pentium_myrinet_cluster

            profile_cluster = pentium_myrinet_cluster()
        self.profile_cluster = profile_cluster
        self.alpha = alpha

        self.catalog = ReplicaCatalog(topology)
        #: One (dataset, kernel trace) pair per dataset key: the
        #: reference profile and every candidate configuration are
        #: priced from one execution of the chunk kernels.
        self._book = KernelBook()
        self._profiles: Dict[DatasetKey, Profile] = {}
        self._models: Dict[str, PredictionModel] = {}
        self._selections: Dict[DatasetKey, SelectionOutcome] = {}
        self._infeasible: Dict[DatasetKey, InfeasibleSelectionError] = {}
        self._exec_cache: Dict[tuple, ActualRun] = {}
        #: Identity-keyed view of ``_exec_cache``: selection outcomes are
        #: memoized for the broker's lifetime, so a candidate object is
        #: stable and ``id(candidate)`` short-circuits the 6-tuple key
        #: build on the placement hot path.
        self._exec_by_cand: Dict[Tuple[int, DatasetKey], ActualRun] = {}
        self._recover_cache: Dict[tuple, float] = {}
        self._reqs: Dict[
            DatasetKey,
            List[Tuple[SelectionCandidate, str, Optional[str], int, int]],
        ] = {}
        self._path_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: Node ledger of the most recent :meth:`run`, for inspection.
        self.last_ledger: Optional[GridLedger] = None
        #: Queue-pressure stats of the most recent :meth:`run` (total
        #: events, peak event-queue and wait-queue depths).
        self.last_queue_stats: Dict[str, int] = {}

    @classmethod
    def from_document(cls, doc: BrokerWorkloadDoc, **kwargs) -> "GridBroker":
        """Build a broker for a parsed workload document."""
        return cls(
            doc.build_topology(),
            doc.allocations,
            replicas=doc.replicas,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Per-workload artefacts (datasets, profiles, selections) — memoized
    # ------------------------------------------------------------------

    @staticmethod
    def _spec(workload: str) -> WorkloadSpec:
        spec = WORKLOADS.get(workload)
        if spec is None:
            raise ConfigurationError(
                f"unknown workload '{workload}'; known: {sorted(WORKLOADS)}"
            )
        return spec

    def _model(self, workload: str) -> PredictionModel:
        model = self._models.get(workload)
        if model is None:
            spec = self._spec(workload)
            model = GlobalReductionModel(
                ModelClasses.parse(
                    spec.natural_object_class, spec.natural_global_class
                )
            )
            self._models[workload] = model
        return model

    def _key(self, job: BrokerJob) -> DatasetKey:
        """The dataset ``job`` reads, as the broker's caches key it."""
        return (job.workload, job.size or self._spec(job.workload).default_size)

    def _pair(self, key: DatasetKey) -> Tuple[Dataset, KernelTrace]:
        """``key``'s dataset and kernel trace, from the broker's book."""
        workload, size = key
        return self._book.lookup(self._spec(workload), size)

    def _dataset(self, key: DatasetKey, job: BrokerJob) -> Dataset:
        """``key``'s dataset, entered in the replica catalog on first use."""
        dataset, _ = self._pair(key)
        if dataset.name not in self.catalog:
            # Replica maps are written in the job's own terms.
            sites = self._replica_map.get(job.dataset_key)
            if sites is None:
                sites = sorted(s.name for s in self.topology.repositories())
            if not sites:
                raise ConfigurationError(
                    f"no replica sites for dataset '{job.dataset_key}'"
                )
            for site in sites:
                self.catalog.add(dataset.name, site)
        return dataset

    def _run_middleware(
        self, key: DatasetKey, config: RunConfig
    ) -> TimeBreakdown:
        """Execute ``key``'s workload under ``config`` (kernels shared)."""
        dataset, kernels = self._pair(key)
        run = FreerideGRuntime(config, kernels=kernels).execute(
            self._spec(key[0]).make_app(), dataset
        )
        return run.breakdown

    def _profile(self, key: DatasetKey) -> Profile:
        """The one-off 1-1 reference profile for (workload, size)."""
        profile = self._profiles.get(key)
        if profile is None:
            from repro.workloads.clusters import DEFAULT_BANDWIDTH

            config = RunConfig(
                storage_cluster=self.profile_cluster,
                compute_cluster=self.profile_cluster,
                data_nodes=1,
                compute_nodes=1,
                bandwidth=DEFAULT_BANDWIDTH,
            )
            profile = Profile.from_run(config, self._run_middleware(key, config))
            self._profiles[key] = profile
        return profile

    @hot
    def _selection(self, key: DatasetKey, job: BrokerJob) -> SelectionOutcome:
        """Full-capacity candidate enumeration (raises when infeasible)."""
        cached = self._selections.get(key)
        if cached is not None:
            return cached
        known_error = self._infeasible.get(key)
        if known_error is not None:
            raise known_error
        dataset = self._dataset(key, job)
        selector = ResourceSelector(
            topology=self.topology,
            catalog=self.catalog,
            model_for_site=self._model(job.workload),
            allocations=self.allocations,
        )
        try:
            outcome = selector.select(
                dataset.name, dataset.nbytes, self._profile(key)
            )
        except InfeasibleSelectionError as exc:
            self._infeasible[key] = exc
            raise
        self._selections[key] = outcome
        return outcome

    def baseline_estimate(
        self, workload: str, size: Optional[str] = None
    ) -> float:
        """Best raw predicted execution time on this grid (idle).

        Job-stream generators scale deadlines off this number.
        """
        probe = BrokerJob(job_id="baseline", workload=workload, size=size)
        outcome = self._selection(self._key(probe), probe)
        return min(c.predicted_total for c in outcome.candidates)

    # ------------------------------------------------------------------
    # Execution (memoized; the middleware is deterministic)
    # ------------------------------------------------------------------

    @hot
    def _execute(self, key: DatasetKey, cand: SelectionCandidate) -> ActualRun:
        fast_key = (id(cand), key)
        cached = self._exec_by_cand.get(fast_key)
        if cached is not None:
            return cached
        storage = self.topology.site(cand.replica_site).cluster
        compute = self.topology.site(cand.compute_site).cluster
        exec_key = (
            key,
            storage.name,
            compute.name,
            cand.data_nodes,
            cand.compute_nodes,
            cand.bandwidth,
        )
        actual = self._exec_cache.get(exec_key)
        if actual is None:
            config = RunConfig(
                storage_cluster=storage,
                compute_cluster=compute,
                data_nodes=cand.data_nodes,
                compute_nodes=cand.compute_nodes,
                bandwidth=cand.bandwidth,
            )
            breakdown = self._run_middleware(key, config)
            actual = ActualRun(
                t_disk=breakdown.t_disk,
                t_network=breakdown.t_network,
                t_compute=breakdown.t_compute,
                num_passes=max(1, breakdown.num_passes),
            )
            self._exec_cache[exec_key] = actual
        self._exec_by_cand[fast_key] = actual
        return actual

    @hot
    def _recover_charge(
        self, key: DatasetKey, cand: SelectionCandidate
    ) -> float:
        """T_recover for resuming a job on ``key`` from checkpoints on ``cand``.

        Priced through the degraded-mode predictor as a compute-node
        restart at the head of the run: checkpoint restore plus replica
        re-staging of the unshipped tail.  The what-if target always has
        at least two compute nodes (a single-node crash schedule would
        leave no survivors to price the restore against).
        """
        recover_key = (
            key,
            cand.replica_site,
            cand.compute_site,
            cand.data_nodes,
            cand.compute_nodes,
        )
        charge = self._recover_cache.get(recover_key)
        if charge is None:
            config = RunConfig(
                storage_cluster=self.topology.site(cand.replica_site).cluster,
                compute_cluster=self.topology.site(cand.compute_site).cluster,
                data_nodes=cand.data_nodes,
                compute_nodes=max(2, cand.compute_nodes),
                bandwidth=cand.bandwidth,
            )
            target = PredictionTarget(
                config=config, dataset_bytes=self._pair(key)[0].nbytes
            )
            what_if = DegradedModePredictor(
                self._model(key[0])
            ).predict_compute_node_crash(
                self._profile(key), target, at_fraction=0.0
            )
            recovery = what_if.recovery
            charge = (
                recovery.t_restore
                + recovery.t_refetch_disk
                + recovery.t_refetch_network
            )
            self._recover_cache[recover_key] = charge
        return charge

    @hot
    def _wan_factor(
        self,
        replica_site: str,
        compute_site: str,
        active: Optional[Sequence[WanDegradation]],
    ) -> float:
        """Product of active WAN degradation factors on the pair's path."""
        if not active or replica_site == compute_site:
            return 1.0
        pair = (replica_site, compute_site)
        path = self._path_cache.get(pair)
        if path is None:
            path = tuple(self.topology.path(replica_site, compute_site))
            self._path_cache[pair] = path
        factor = 1.0
        for spec in active:
            if spec.crosses(path):
                factor *= spec.factor
        return factor

    @hot
    def _requirements(
        self, key: DatasetKey, job: BrokerJob
    ) -> List[Tuple[SelectionCandidate, str, Optional[str], int, int]]:
        """``job``'s candidates with the free nodes each needs, in order.

        One ``(candidate, site, other_site, need, other_need)`` tuple per
        candidate; a same-site candidate needs the sum of both node sets
        from its one pool and folds to ``(candidate, site, None, sum, 0)``.
        Candidates are memoized per dataset key, so this is computed once
        and the feasibility scan touches only plain tuples.
        """
        reqs = self._reqs.get(key)
        if reqs is None:
            reqs = []
            for cand in self._selection(key, job).candidates:
                if cand.replica_site == cand.compute_site:
                    reqs.append((
                        cand,
                        cand.replica_site,
                        None,
                        cand.data_nodes + cand.compute_nodes,
                        0,
                    ))
                else:
                    reqs.append((
                        cand,
                        cand.replica_site,
                        cand.compute_site,
                        cand.data_nodes,
                        cand.compute_nodes,
                    ))
            self._reqs[key] = reqs
        return reqs

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    @hot
    def run(
        self,
        jobs: Sequence[BrokerJob],
        policy: str = "min-completion",
        *,
        calibrate: bool = True,
        faults: Optional[GridFaultSchedule] = None,
        recovery: str = "resubmit",
        retry: Optional[RetryPolicy] = None,
    ) -> PolicyRun:
        """Broker one job stream under one policy.

        Returns the :class:`PolicyRun` with placements, rejections and
        the completion-ordered prediction-error series.  The run's node
        grants stay on :attr:`last_ledger` (the property tests derive
        per-node reservation windows from it) and its queue-pressure
        stats on :attr:`last_queue_stats`.

        ``faults`` installs a grid fault schedule: the report then also
        carries the fault timeline, preemptions, terminal failures and
        resilience metrics, with preempted jobs routed through the named
        ``recovery`` policy under the bounded ``retry`` budget.  Without
        faults the report is byte-identical to a fault-free broker's.
        """
        if not jobs:
            raise ConfigurationError("no jobs to broker")
        require_unique_ids(jobs)
        state = _BrokerRun(self, jobs, policy, calibrate, faults, recovery, retry)
        queue = state.queue
        # Indexed by EventKind: handlers[EventKind.ARRIVAL] is on_arrival.
        handlers = tuple(
            getattr(state, f"on_{kind.name.lower()}") for kind in EventKind
        )
        # Six-figure streams allocate millions of objects that all survive
        # (report rows, ledger grants); CPython's collector re-scans that
        # growing live set on every gen-2 pass, which turns the loop
        # superlinear.  Nothing here creates reference cycles, so the loop
        # pauses automatic collection until the ``finally``.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                event = queue.pop()
                state.now = event.time
                handlers[event.kind](event.payload)
                state.place_ready()
        finally:
            if gc_was_enabled:
                gc.enable()

        self.last_ledger = state.ledger
        self.last_queue_stats = {
            "events": queue.total_pushed,
            "peak_event_queue_depth": queue.peak_depth,
            "peak_pending_depth": state.peak_pending,
        }
        return state.result()

    # ------------------------------------------------------------------
    # Grid-weather delivery
    # ------------------------------------------------------------------

    def _schedule_faults(
        self, schedule: GridFaultSchedule, queue: EventQueue
    ) -> None:
        """Turn the fault schedule into FAULT/REPAIR events."""
        for index, spec in enumerate(schedule.faults):
            if isinstance(spec, (SiteOutage, NodePoolShrink, WanDegradation)):
                for site in self._fault_sites(spec):
                    if site not in self.topology:
                        raise ConfigurationError(
                            f"grid fault targets unknown site '{site}'"
                        )
                queue.push(
                    Event(
                        time=spec.at,
                        kind=EventKind.FAULT,
                        payload=(index, spec),
                    )
                )
                repair_at = self._repair_time(spec)
                if repair_at is not None:
                    queue.push(
                        Event(
                            time=repair_at,
                            kind=EventKind.REPAIR,
                            payload=(index, spec),
                        )
                    )
            # TransientJobFailure is consulted at placement time.

    @staticmethod
    def _fault_sites(spec: object) -> Tuple[str, ...]:
        if isinstance(spec, WanDegradation):
            return (spec.site_a, spec.site_b)
        return (spec.site,)  # type: ignore[union-attr]

    @staticmethod
    def _repair_time(spec: object) -> Optional[float]:
        if isinstance(spec, SiteOutage):
            return spec.repaired_at
        if isinstance(spec, NodePoolShrink):
            if spec.restore_after is None:
                return None
            return spec.at + spec.restore_after
        if isinstance(spec, WanDegradation):
            if spec.duration is None:
                return None
            return spec.at + spec.duration
        return None

    # ------------------------------------------------------------------

    def compare(
        self,
        name: str,
        jobs: Sequence[BrokerJob],
        policies: Sequence[str] = POLICY_NAMES,
        *,
        include_uncalibrated: bool = True,
        faults: Optional[GridFaultSchedule] = None,
        recovery: str = "resubmit",
        retry: Optional[RetryPolicy] = None,
    ) -> BrokerReport:
        """Run every policy over the same stream; one report.

        ``include_uncalibrated`` adds a calibration-off twin of the first
        policy, the control for the calibration-accuracy claim.  A
        ``faults`` schedule applies identically to every run.
        """
        runs = [
            self.run(jobs, policy, faults=faults, recovery=recovery,
                     retry=retry)
            for policy in policies
        ]
        if include_uncalibrated and policies:
            runs.append(
                self.run(jobs, policies[0], calibrate=False, faults=faults,
                         recovery=recovery, retry=retry)
            )
        return BrokerReport(name=name, runs=tuple(runs))

    def resolve_jobs(self, doc: BrokerWorkloadDoc) -> List[BrokerJob]:
        """The document's job stream (expanding a seeded stream spec)."""
        if doc.jobs:
            return list(doc.jobs)
        spec = StreamSpec.from_dict(doc.stream or {})
        return generate_stream(spec, baselines=self.baseline_estimate)


class _BrokerRun:
    """The mutable state of one :meth:`GridBroker.run`.

    One ``on_<kind>`` handler per :class:`EventKind`, then
    :meth:`place_ready` after every event.  Grid weather is part of the
    state whether or not the run has faults: without a schedule the
    fault tables simply stay empty.
    """

    __slots__ = (
        "broker", "policy", "calibrate", "calibrator", "recovery",
        "faulted", "ledger", "queue", "now", "attempt_ids",
        # (sort key, job) heap, ordered by priority then arrival.
        "pending", "peak_pending",
        # (job_id, ledger version) of the last blocked queue head: the
        # head cannot become placeable until capacity moves.
        "last_block",
        # attempt id -> placement / in-flight attempt; a preemption
        # deletes both entries.
        "placed", "running",
        "rejections", "errors",
        # Transient-failure specs and remaining scripted aborts per job.
        "transient", "aborts_left",
        "wan_active",
        # NodePoolShrink schedule index -> the nodes it removed.
        "shrink_victims",
        # job id -> what its next attempt resumes from.
        "resume",
        # job id -> its dataset key, resolved once on arrival.
        "keys",
        "fault_events", "preemptions", "failures",
    )

    def __init__(
        self,
        broker: GridBroker,
        jobs: Sequence[BrokerJob],
        policy: str,
        calibrate: bool,
        faults: Optional[GridFaultSchedule],
        recovery: str,
        retry: Optional[RetryPolicy],
    ) -> None:
        self.broker = broker
        self.policy = make_policy(
            policy, [s.name for s in broker.topology.sites(SiteKind.COMPUTE)]
        )
        self.calibrate = calibrate
        self.calibrator = OnlineCalibrator(alpha=broker.alpha)
        # Built even without faults, so a bad name is refused on every run.
        self.recovery = make_recovery(recovery, retry)
        self.faulted = bool(faults)
        self.ledger = GridLedger.from_topology(broker.topology)
        self.queue = EventQueue()
        for job in sorted_jobs(jobs):
            self.queue.push(
                Event(time=job.arrival, kind=EventKind.ARRIVAL, payload=job)
            )
        self.now = 0.0
        self.attempt_ids = itertools.count(1)
        self.pending: List[Tuple[tuple, BrokerJob]] = []
        self.peak_pending = 0
        self.last_block: Optional[Tuple[str, int]] = None
        self.placed: Dict[int, BrokerPlacement] = {}
        self.running: Dict[int, _Attempt] = {}
        self.rejections: List[BrokerRejection] = []
        self.errors: List[Tuple[str, float]] = []
        self.transient = faults.transient_failures if faults else {}
        self.aborts_left = {
            job_id: spec.failures for job_id, spec in self.transient.items()
        }
        self.wan_active: List[WanDegradation] = []
        self.shrink_victims: Dict[int, Tuple[int, ...]] = {}
        self.resume: Dict[str, _Resume] = {}
        self.keys: Dict[str, DatasetKey] = {}
        self.fault_events: List[GridFaultEvent] = []
        self.preemptions: List[BrokerPreemption] = []
        self.failures: List[TerminalFailure] = []
        if faults:
            broker._schedule_faults(faults, self.queue)

    # ------------------------------------------------------------------
    # One handler per EventKind
    # ------------------------------------------------------------------

    @hot
    def on_completion(self, attempt: _Attempt) -> None:
        if self.running.pop(attempt.attempt_id, None) is None:
            return  # preempted before it could complete
        self._release(attempt)
        job, option, actual = attempt.job, attempt.option, attempt.actual
        self.errors.append(
            (job.job_id, abs(actual.total - option.predicted_total) / actual.total)
        )
        # remaining_fraction <= 1 and resume_charge >= 0 by construction:
        # only an attempt that ran the whole job from scratch teaches the
        # calibrator.
        if (
            self.calibrate
            and option.remaining_fraction >= 1.0
            and option.resume_charge <= 0.0
        ):
            cand = option.candidate
            self.calibrator.observe(
                job.workload,
                cand.replica_site,
                cand.compute_site,
                option.raw,
                actual.components,
            )

    def on_abort(self, attempt: _Attempt) -> None:
        if attempt.attempt_id in self.running:
            self._weather(
                "transient-failure",
                attempt.job.job_id,
                f"attempt {attempt.number} aborted",
            )
            self._preempt(attempt, "transient-failure")

    def on_fault(self, payload: Tuple[int, object]) -> None:
        index, spec = payload
        # ``running`` iterates in attempt-id order: ids grow with placement.
        if isinstance(spec, SiteOutage):
            self._weather(
                "site-outage",
                spec.site,
                "permanent"
                if spec.repair_after is None
                else f"repair after {spec.repair_after}s",
            )
            for attempt in [
                a for a in self.running.values() if a.uses_site(spec.site)
            ]:
                self._preempt(attempt, "site-outage")
            self.ledger.pool(spec.site).fail(self.now)
        elif isinstance(spec, NodePoolShrink):
            removed = self.ledger.pool(spec.site).shrink(spec.nodes, self.now)
            self.shrink_victims[index] = removed
            self._weather(
                "pool-shrink", spec.site, f"nodes {sorted(removed)} removed"
            )
            for attempt in [
                a
                for a in self.running.values()
                if a.uses_node(spec.site, removed)
            ]:
                self._preempt(attempt, "pool-shrink")
        elif isinstance(spec, WanDegradation):
            self.wan_active.append(spec)
            self._weather(
                "wan-degradation",
                f"{spec.site_a}~{spec.site_b}",
                f"factor {spec.factor}",
            )

    def on_repair(self, payload: Tuple[int, object]) -> None:
        index, spec = payload
        if isinstance(spec, SiteOutage):
            self.ledger.pool(spec.site).repair(self.now)
            self._weather("site-repair", spec.site)
        elif isinstance(spec, NodePoolShrink):
            victims = self.shrink_victims.get(index, ())
            if victims:
                self.ledger.pool(spec.site).restore(victims, self.now)
            self._weather(
                "pool-restore", spec.site, f"nodes {sorted(victims)} restored"
            )
        elif isinstance(spec, WanDegradation):
            self.wan_active.remove(spec)
            self._weather("wan-restoration", f"{spec.site_a}~{spec.site_b}")

    def on_requeue(self, job: BrokerJob) -> None:
        self._enqueue(job)

    @hot
    def on_arrival(self, job: BrokerJob) -> None:
        broker = self.broker
        key = self.keys[job.job_id] = broker._key(job)
        try:
            outcome = broker._selection(key, job)
        except InfeasibleSelectionError as exc:
            tagged = exc.tagged(job.arrival_index, job.vo)
            detail = "; ".join(r.label for r in tagged.rejections[:3])
            self._reject(
                job, "no-feasible-configuration", detail or str(tagged)
            )
            return
        # Idle-grid totals are only computed when the policy's admission
        # check will read them.
        if self.policy.wants_admission_totals(job):
            refusal = self.policy.admit(
                job, self._totals(job, outcome.candidates), self.now
            )
            if refusal is not None:
                self._reject(job, refusal.code, refusal.reason)
                return
        self._enqueue(job)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    @hot
    def place_ready(self) -> None:
        """Serve the queue head while it fits; no backfill."""
        pending = self.pending
        ledger = self.ledger
        policy = self.policy
        requirements = self.broker._requirements
        keys = self.keys
        while pending:
            head = pending[0][1]
            if self.last_block == (head.job_id, ledger.version):
                return
            # Feasibility first: one free-count read per decision, then
            # plain integer compares, so a blocked head is detected
            # before any candidate is scored.
            free = ledger.free_counts()
            feasible = [
                cand
                for cand, s1, s2, n1, n2 in requirements(keys[head.job_id], head)
                if free[s1] >= n1 and (s2 is None or free[s2] >= n2)
            ]
            if not feasible:
                self.last_block = (head.job_id, ledger.version)
                return
            heapq.heappop(pending)
            # Round-robin never reads predictions, so its decisions skip
            # the scoring entirely.
            totals = self._totals(head, feasible) if policy.needs_totals else []
            choice = policy.choose_index(head, feasible, totals, self.now)
            if isinstance(choice, Rejection):
                self._reject(head, choice.code, choice.reason)
            else:
                self._place(head, feasible[choice])

    @hot
    def _totals(
        self, job: BrokerJob, cands: Sequence[SelectionCandidate]
    ) -> List[float]:
        """The calibrated predicted time of an attempt on each candidate.

        A job with no resume state, while no WAN degradation is active,
        is scored with one calibrated scalar per candidate, bit-identical
        to the ``predicted_total`` of the option :meth:`_terms` describes;
        any other job through that option's own formula,
        :func:`attempt_total`.  Deliberately not cached: the feasible
        subset is free-count-shaped, and at steady state a same-workload
        completion lands between almost every pair of same-workload
        placements.
        """
        if not self.wan_active and job.job_id not in self.resume:
            app = job.workload
            correct_total = self.calibrator.correct_total
            return [
                correct_total(
                    app, cand.replica_site, cand.compute_site, cand.prediction
                )
                for cand in cands
            ]
        return [attempt_total(*self._terms(job, cand)) for cand in cands]

    @hot
    def _terms(
        self, job: BrokerJob, cand: SelectionCandidate
    ) -> Tuple[PredictedBreakdown, float, float, float]:
        """``(calibrated, remaining, charge, wan)`` of ``job`` on ``cand``."""
        resume = self.resume.get(job.job_id, _FRESH)
        done = resume.progress
        broker = self.broker
        return (
            self.calibrator.correct(
                job.workload, cand.replica_site, cand.compute_site,
                cand.prediction,
            ),
            1.0 - done,
            broker._recover_charge(self.keys[job.job_id], cand)
            if resume.charge and done > 0
            else 0.0,
            broker._wan_factor(
                cand.replica_site, cand.compute_site, self.wan_active
            ),
        )

    @hot
    def _place(self, job: BrokerJob, cand: SelectionCandidate) -> None:
        option = PlacementOption(cand, cand.prediction, *self._terms(job, cand))
        actual = self.broker._execute(self.keys[job.job_id], cand)
        if option.wan_factor > 1.0:
            actual = ActualRun(
                t_disk=actual.t_disk,
                t_network=actual.t_network * option.wan_factor,
                t_compute=actual.t_compute,
                num_passes=actual.num_passes,
            )
        duration = (
            option.remaining_fraction * actual.total + option.resume_charge
        )
        start, end = self.now, self.now + duration
        ledger = self.ledger
        data_ids = ledger.pool(cand.replica_site).acquire(
            cand.data_nodes, job.job_id, start, end
        )
        compute_ids = ledger.pool(cand.compute_site).acquire(
            cand.compute_nodes, job.job_id, start, end
        )
        attempt = _Attempt(
            attempt_id=next(self.attempt_ids),
            number=self.resume.get(job.job_id, _FRESH).failed_attempts + 1,
            job=job,
            option=option,
            data_node_ids=data_ids,
            compute_node_ids=compute_ids,
            start=start,
            end=end,
            actual=actual,
        )
        self.placed[attempt.attempt_id] = BrokerPlacement(
            job_id=job.job_id,
            workload=job.workload,
            replica_site=cand.replica_site,
            compute_site=cand.compute_site,
            data_nodes=cand.data_nodes,
            compute_nodes=cand.compute_nodes,
            data_node_ids=data_ids,
            compute_node_ids=compute_ids,
            arrival=job.arrival,
            start=start,
            end=end,
            predicted_total=option.predicted_total,
            raw_predicted_total=option.raw.total,
            deadline=job.deadline,
            priority=job.priority,
            attempt=attempt.number,
            recovery_charge=option.resume_charge,
        )
        self.running[attempt.attempt_id] = attempt
        queue = self.queue
        queue.push(Event(time=end, kind=EventKind.COMPLETION, payload=attempt))
        doomed = self.aborts_left.get(job.job_id, 0)
        if doomed > 0:
            self.aborts_left[job.job_id] = doomed - 1
            at_fraction = self.transient[job.job_id].at_fraction
            queue.push(
                Event(
                    time=start + at_fraction * duration,
                    kind=EventKind.ABORT,
                    payload=attempt,
                )
            )

    # ------------------------------------------------------------------
    # Job outcomes other than a placement
    # ------------------------------------------------------------------

    @hot
    def _enqueue(self, job: BrokerJob) -> None:
        heapq.heappush(
            self.pending, ((-job.priority, job.arrival, job.job_id), job)
        )
        if len(self.pending) > self.peak_pending:
            self.peak_pending = len(self.pending)

    def _reject(self, job: BrokerJob, code: str, reason: str) -> None:
        self.rejections.append(
            BrokerRejection(
                job_id=job.job_id,
                workload=job.workload,
                time=self.now,
                code=code,
                reason=reason,
                deadline=job.deadline,
                vo=job.vo,
                arrival_index=job.arrival_index,
            )
        )

    def _release(self, attempt: _Attempt) -> None:
        cand = attempt.option.candidate
        self.ledger.pool(cand.replica_site).release(attempt.data_node_ids)
        self.ledger.pool(cand.compute_site).release(attempt.compute_node_ids)

    def _preempt(self, attempt: _Attempt, cause: str) -> None:
        """Tear one attempt down and route its job through recovery."""
        at, job = self.now, attempt.job
        del self.running[attempt.attempt_id]
        del self.placed[attempt.attempt_id]
        cand = attempt.option.candidate
        self.ledger.pool(cand.replica_site).truncate_windows(job.job_id, at)
        if cand.compute_site != cand.replica_site:
            self.ledger.pool(cand.compute_site).truncate_windows(
                job.job_id, at
            )
        self._release(attempt)

        decision = self.recovery.plan(
            Incident(
                job=job,
                cause=cause,
                time=at,
                failed_attempts=attempt.number,
                done_before=attempt.progress_before,
                checkpoint_fraction=attempt.checkpoint_at(at),
            )
        )
        kept = decision.progress if isinstance(decision, Requeue) else 0.0
        gained = max(0.0, kept - attempt.progress_before)
        self.preemptions.append(
            BrokerPreemption(
                job_id=job.job_id,
                workload=job.workload,
                attempt=attempt.number,
                time=at,
                start=attempt.start,
                cause=cause,
                site=cand.compute_site,
                wasted=(at - attempt.start) - gained * attempt.actual.total,
                kept_fraction=kept,
            )
        )
        if isinstance(decision, GiveUp):
            self._fail(job, decision.code, decision.reason, attempt.number)
            return
        self.resume[job.job_id] = _Resume(
            progress=kept,
            charge=decision.charge_recovery,
            failed_attempts=attempt.number,
        )
        self.queue.push(
            Event(time=decision.at, kind=EventKind.REQUEUE, payload=job)
        )

    def _fail(
        self, job: BrokerJob, code: str, reason: str, attempts: int
    ) -> None:
        self.failures.append(
            TerminalFailure(
                job_id=job.job_id,
                workload=job.workload,
                time=self.now,
                code=code,
                reason=reason,
                attempts=attempts,
                deadline=job.deadline,
            )
        )

    def _weather(self, kind: str, target: str, detail: str = "") -> None:
        self.fault_events.append(
            GridFaultEvent(time=self.now, kind=kind, target=target, detail=detail)
        )

    # ------------------------------------------------------------------

    def result(self) -> PolicyRun:
        """Settle what is still queued and assemble the report section."""
        # Jobs still queued when the event stream dries up can never be
        # served (nothing is running, nothing will be repaired): settle
        # them terminally so every admitted job is accounted for.
        for _, job in sorted(self.pending):
            self._fail(
                job,
                "stranded-no-capacity",
                "no feasible placement before the event stream ended "
                "(lost capacity was never repaired)",
                self.resume.get(job.job_id, _FRESH).failed_attempts,
            )
        return PolicyRun(
            policy=self.policy.name,
            calibrated=self.calibrate,
            placements=tuple(self.placed.values()),
            rejections=tuple(self.rejections),
            error_series=tuple(self.errors),
            calibration_factors=(
                self.calibrator.snapshot() if self.calibrate else {}
            ),
            recovery=self.recovery.name if self.faulted else None,
            fault_events=tuple(self.fault_events),
            preemptions=tuple(self.preemptions),
            failures=tuple(self.failures),
        )
