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
:class:`~repro.faults.retry.BrokerRetryPolicy` — until it either
completes or is terminally failed and classified in the report.

Every data structure iterates in a deterministic order, so replaying
the same job stream (and the same fault schedule) yields a
byte-identical :class:`BrokerReport`; a fault-free run serializes
byte-identically to a broker without the fault model.

The event loop is sized for six-figure trace streams: binary-heap event
and wait queues, read-cached calibration, a per-application
placement-option cache invalidated on every calibration update, an
admission fast path that only builds idle-grid options for policies
that read them, and an O(1)-amortized blocked-head check — a queue head
that found no feasible candidate is not re-evaluated until
:attr:`~repro.broker.events.GridLedger.version` moves (feasibility
depends only on free node counts, which every capacity change
version-bumps).

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
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.broker.calibration import OnlineCalibrator
from repro.broker.events import Event, EventKind, EventQueue, GridLedger
from repro.broker.jobs import BrokerJob, BrokerWorkloadDoc, sorted_jobs
from repro.broker.policies import (
    POLICY_NAMES,
    PlacementOption,
    Rejection,
    make_policy,
)
from repro.broker.recovery import (
    GiveUp,
    Incident,
    RecoveryPolicy,
    Requeue,
    make_recovery,
)
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
from repro.core.models import GlobalReductionModel, PredictionModel
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
from repro.faults.retry import BrokerRetryPolicy
from repro.middleware.dataset import Dataset
from repro.middleware.kernels import KernelTrace
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


@dataclass(frozen=True, slots=True)
class _Completion:
    """Payload of a completion event."""

    attempt_id: int
    job: BrokerJob
    candidate: SelectionCandidate
    data_node_ids: Tuple[int, ...]
    compute_node_ids: Tuple[int, ...]
    raw: object  # PredictedBreakdown
    predicted_total: float
    actual: ActualRun
    full_attempt: bool = True


@dataclass(slots=True)
class _Running:
    """Book-keeping of one in-flight attempt (mutable engine state)."""

    attempt_id: int
    attempt_number: int
    job: BrokerJob
    candidate: SelectionCandidate
    data_node_ids: Tuple[int, ...]
    compute_node_ids: Tuple[int, ...]
    start: float
    end: float
    #: Work fraction already done when the attempt started.
    progress_before: float
    #: T_recover seconds paid at the head of this attempt.
    charge: float
    #: Effective full-run duration (WAN-stretched) of this placement.
    full_total: float
    num_passes: int

    def uses_site(self, site: str) -> bool:
        return site in (
            self.candidate.replica_site, self.candidate.compute_site
        )

    def uses_node(self, site: str, nodes: Sequence[int]) -> bool:
        victims = set(nodes)
        if self.candidate.replica_site == site and victims.intersection(
            self.data_node_ids
        ):
            return True
        return self.candidate.compute_site == site and bool(
            victims.intersection(self.compute_node_ids)
        )

    def progress_at(self, when: float) -> float:
        """Total work fraction done by ``when`` (charge paid first)."""
        executed = max(0.0, min(when, self.end) - self.start - self.charge)
        if self.full_total <= 0.0:
            return self.progress_before
        return min(1.0, self.progress_before + executed / self.full_total)

    def checkpoint_at(self, when: float) -> float:
        """Progress quantized down to a completed-pass boundary."""
        if self.num_passes <= 0:
            return 0.0
        done = self.progress_at(when)
        return int(done * self.num_passes) / self.num_passes


@dataclass(slots=True)
class _FaultState:
    """Mutable grid-weather state of one faulted :meth:`GridBroker.run`."""

    schedule: GridFaultSchedule
    recovery: RecoveryPolicy
    #: Remaining scripted aborts per job id.
    transient_remaining: Dict[str, int]
    #: Currently active WAN degradations.
    wan_active: List[WanDegradation]
    #: Nodes removed by each NodePoolShrink (schedule index -> victims).
    shrink_victims: Dict[int, Tuple[int, ...]]
    #: Failed attempts per job id (drives the retry budget).
    failed_attempts: Dict[str, int]
    #: Work fraction each job carries into its next attempt.
    progress: Dict[str, float]
    #: Whether the next attempt of the job must pay T_recover.
    charge_next: Dict[str, bool]
    #: Jobs already settled terminally (never requeued again).
    terminal: Set[str]

    fault_events: List[GridFaultEvent]
    preemptions: List[BrokerPreemption]
    failures: List[TerminalFailure]


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
        self._datasets: Dict[str, Dataset] = {}
        #: One kernel trace per dataset key: the reference profile and
        #: every candidate configuration are priced from one execution of
        #: the chunk kernels.
        self._kernels: Dict[str, KernelTrace] = {}
        self._profiles: Dict[str, Profile] = {}
        self._models: Dict[str, PredictionModel] = {}
        self._selections: Dict[str, SelectionOutcome] = {}
        self._infeasible: Dict[str, InfeasibleSelectionError] = {}
        self._exec_cache: Dict[tuple, ActualRun] = {}
        #: Identity-keyed view of ``_exec_cache``: selection outcomes are
        #: memoized for the broker's lifetime, so a candidate object is
        #: stable and ``id(candidate)`` short-circuits the 6-tuple key
        #: build on the placement hot path.
        self._exec_by_cand: Dict[Tuple[int, str], ActualRun] = {}
        self._recover_cache: Dict[tuple, float] = {}
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

    def _dataset(self, job: BrokerJob) -> Dataset:
        key = job.dataset_key
        dataset = self._datasets.get(key)
        if dataset is None:
            dataset = self._spec(job.workload).make_dataset(job.size)
            if dataset.name not in self.catalog:
                sites = self._replica_map.get(key)
                if sites is None:
                    sites = sorted(
                        s.name for s in self.topology.repositories()
                    )
                if not sites:
                    raise ConfigurationError(
                        f"no replica sites for dataset '{key}'"
                    )
                for site in sites:
                    self.catalog.add(dataset.name, site)
            self._datasets[key] = dataset
        return dataset

    def _run_middleware(
        self, job: BrokerJob, config: RunConfig
    ) -> TimeBreakdown:
        """Execute ``job``'s workload under ``config`` (kernels shared)."""
        kernels = self._kernels.setdefault(job.dataset_key, KernelTrace())
        run = FreerideGRuntime(config, kernels=kernels).execute(
            self._spec(job.workload).make_app(), self._dataset(job)
        )
        return run.breakdown

    def _profile(self, job: BrokerJob) -> Profile:
        """The one-off 1-1 reference profile for (workload, size)."""
        key = job.dataset_key
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
            profile = Profile.from_run(config, self._run_middleware(job, config))
            self._profiles[key] = profile
        return profile

    @hot
    def _selection(self, job: BrokerJob) -> SelectionOutcome:
        """Full-capacity candidate enumeration (raises when infeasible)."""
        key = job.dataset_key
        cached = self._selections.get(key)
        if cached is not None:
            return cached
        known_error = self._infeasible.get(key)
        if known_error is not None:
            raise known_error
        dataset = self._dataset(job)
        selector = ResourceSelector(
            topology=self.topology,
            catalog=self.catalog,
            model_for_site=self._model(job.workload),
            allocations=self.allocations,
        )
        try:
            outcome = selector.select(
                dataset.name, dataset.nbytes, self._profile(job)
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
        outcome = self._selection(probe)
        return min(c.predicted_total for c in outcome.candidates)

    # ------------------------------------------------------------------
    # Execution (memoized; the middleware is deterministic)
    # ------------------------------------------------------------------

    @hot
    def _execute(self, job: BrokerJob, cand: SelectionCandidate) -> ActualRun:
        fast_key = (id(cand), job.dataset_key)
        cached = self._exec_by_cand.get(fast_key)
        if cached is not None:
            return cached
        storage = self.topology.site(cand.replica_site).cluster
        compute = self.topology.site(cand.compute_site).cluster
        key = (
            job.dataset_key,
            storage.name,
            compute.name,
            cand.data_nodes,
            cand.compute_nodes,
            cand.bandwidth,
        )
        actual = self._exec_cache.get(key)
        if actual is None:
            config = RunConfig(
                storage_cluster=storage,
                compute_cluster=compute,
                data_nodes=cand.data_nodes,
                compute_nodes=cand.compute_nodes,
                bandwidth=cand.bandwidth,
            )
            breakdown = self._run_middleware(job, config)
            actual = ActualRun(
                t_disk=breakdown.t_disk,
                t_network=breakdown.t_network,
                t_compute=breakdown.t_compute,
                num_passes=max(1, breakdown.num_passes),
            )
            self._exec_cache[key] = actual
        self._exec_by_cand[fast_key] = actual
        return actual

    @hot
    def _recover_charge(self, job: BrokerJob, cand: SelectionCandidate) -> float:
        """T_recover for resuming ``job`` from checkpoints on ``cand``.

        Priced through the degraded-mode predictor as a compute-node
        restart at the head of the run: checkpoint restore plus replica
        re-staging of the unshipped tail.  The what-if target always has
        at least two compute nodes (a single-node crash schedule would
        leave no survivors to price the restore against).
        """
        key = (
            job.dataset_key,
            cand.replica_site,
            cand.compute_site,
            cand.data_nodes,
            cand.compute_nodes,
        )
        charge = self._recover_cache.get(key)
        if charge is None:
            config = RunConfig(
                storage_cluster=self.topology.site(cand.replica_site).cluster,
                compute_cluster=self.topology.site(cand.compute_site).cluster,
                data_nodes=cand.data_nodes,
                compute_nodes=max(2, cand.compute_nodes),
                bandwidth=cand.bandwidth,
            )
            target = PredictionTarget(
                config=config, dataset_bytes=self._dataset(job).nbytes
            )
            what_if = DegradedModePredictor(
                self._model(job.workload)
            ).predict_compute_node_crash(
                self._profile(job), target, at_fraction=0.0
            )
            recovery = what_if.recovery
            charge = (
                recovery.t_restore
                + recovery.t_refetch_disk
                + recovery.t_refetch_network
            )
            self._recover_cache[key] = charge
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
        retry: Optional[BrokerRetryPolicy] = None,
    ) -> PolicyRun:
        """Broker one job stream under one policy.

        Returns the :class:`PolicyRun` with placements, rejections and
        the completion-ordered prediction-error series.  The run's node
        grants are kept on :attr:`last_ledger` for inspection (the
        property tests derive the per-node reservation windows from it
        and check them for overlap), and queue-pressure stats on
        :attr:`last_queue_stats`.

        ``faults`` installs a grid fault schedule: the report then also
        carries the fault timeline, preemptions, terminal failures and
        resilience metrics, with preempted jobs routed through the named
        ``recovery`` policy under the bounded ``retry`` budget.  Without
        faults the report is byte-identical to a fault-free broker's.
        """
        if not jobs:
            raise ConfigurationError("no jobs to broker")
        stream = sorted_jobs(jobs)
        policy_impl = make_policy(
            policy, [s.name for s in self.topology.sites(SiteKind.COMPUTE)]
        )
        calibrator = OnlineCalibrator(alpha=self.alpha)
        ledger = GridLedger.from_topology(self.topology)
        queue = EventQueue()
        for job in stream:
            queue.push(Event(time=job.arrival, kind=EventKind.ARRIVAL,
                             payload=job))

        faulted = faults is not None and len(faults) > 0
        state: Optional[_FaultState] = None
        if faulted:
            assert faults is not None
            state = _FaultState(
                schedule=faults,
                recovery=make_recovery(recovery, retry),
                transient_remaining={
                    job_id: spec.failures
                    for job_id, spec in faults.transient_failures.items()
                },
                wan_active=[],
                shrink_victims={},
                failed_attempts={},
                progress={},
                charge_next={},
                terminal=set(),
                fault_events=[],
                preemptions=[],
                failures=[],
            )
            self._schedule_faults(faults, queue)

        pending: List[Tuple[tuple, BrokerJob]] = []  # (sort key, job)
        #: Placements in placement order, keyed by attempt id so that
        #: preempted attempts can be withdrawn without reordering.
        placed: List[Tuple[int, BrokerPlacement]] = []
        rejections: List[BrokerRejection] = []
        errors: List[Tuple[str, float]] = []
        running: Dict[int, _Running] = {}
        cancelled: Set[int] = set()
        attempt_seq = 0
        now = 0.0
        peak_pending = 0
        #: Per-workload calibration epochs: observe() only moves factors
        #: of the completed job's application, so only that workload's
        #: cached options go stale.
        app_epoch: Dict[str, int] = {}
        #: dataset_key -> (workload epoch at build, fault-free options).
        #: Options are job-independent fault-free, so the list is shared
        #: across jobs of the same (workload, size) until calibration
        #: moves for that workload.
        options_cache: Dict[str, Tuple[int, List[PlacementOption]]] = {}
        #: (job_id, ledger version) of the last blocked queue head: the
        #: head cannot become placeable until capacity moves, so the
        #: placement loop skips it while the version stands still.
        last_block: Optional[Tuple[str, int]] = None
        #: dataset_key -> per-candidate capacity requirements, in
        #: candidate order: ``(site, other_site, need, other_need)``
        #: with same-site pairs folded to ``(site, None, sum, 0)``.
        #: Candidates are memoized per dataset key, so this is computed
        #: once and the feasibility scan touches only plain tuples.
        feas_reqs: Dict[
            str, List[Tuple[str, Optional[str], int, int]]
        ] = {}

        @hot
        def reject(job: BrokerJob, now: float, code: str, reason: str) -> None:
            rejections.append(
                BrokerRejection(
                    job_id=job.job_id,
                    workload=job.workload,
                    time=now,
                    code=code,
                    reason=reason,
                    deadline=job.deadline,
                    vo=job.vo,
                    arrival_index=job.arrival_index,
                )
            )

        @hot
        def enqueue(job: BrokerJob) -> None:
            nonlocal peak_pending
            entry = ((-job.priority, job.arrival, job.job_id), job)
            heapq.heappush(pending, entry)
            if len(pending) > peak_pending:
                peak_pending = len(pending)

        @hot
        def job_options(
            job: BrokerJob, outcome: SelectionOutcome
        ) -> List[PlacementOption]:
            if state is None:
                epoch = app_epoch.get(job.workload, 0)
                cached = options_cache.get(job.dataset_key)
                if cached is not None and cached[0] == epoch:
                    return cached[1]
                opts = self._options(job, outcome, calibrator)
                options_cache[job.dataset_key] = (epoch, opts)
                return opts
            done = state.progress.get(job.job_id, 0.0)
            return self._options(
                job,
                outcome,
                calibrator,
                remaining=1.0 - done,
                charge=state.charge_next.get(job.job_id, False) and done > 0,
                wan=state.wan_active,
            )

        @hot
        def settle_preemption(run_state: _Running, cause: str, at: float) -> None:
            """Tear one attempt down and route its job through recovery."""
            assert state is not None
            cancelled.add(run_state.attempt_id)
            running.pop(run_state.attempt_id, None)
            cand = run_state.candidate
            ledger.pool(cand.replica_site).truncate_windows(
                run_state.job.job_id, at
            )
            if cand.compute_site != cand.replica_site:
                ledger.pool(cand.compute_site).truncate_windows(
                    run_state.job.job_id, at
                )
            ledger.pool(cand.replica_site).release(run_state.data_node_ids)
            ledger.pool(cand.compute_site).release(run_state.compute_node_ids)

            job = run_state.job
            state.failed_attempts[job.job_id] = run_state.attempt_number
            incident = Incident(
                job=job,
                cause=cause,
                time=at,
                failed_attempts=run_state.attempt_number,
                done_before=run_state.progress_before,
                checkpoint_fraction=run_state.checkpoint_at(at),
            )
            decision = state.recovery.plan(incident)
            kept = decision.progress if isinstance(decision, Requeue) else 0.0
            gained = max(0.0, kept - run_state.progress_before)
            executed = at - run_state.start
            state.preemptions.append(
                BrokerPreemption(
                    job_id=job.job_id,
                    workload=job.workload,
                    attempt=run_state.attempt_number,
                    time=at,
                    start=run_state.start,
                    cause=cause,
                    site=cand.compute_site,
                    wasted=executed - gained * run_state.full_total,
                    kept_fraction=kept,
                )
            )
            if isinstance(decision, GiveUp):
                state.terminal.add(job.job_id)
                state.failures.append(
                    TerminalFailure(
                        job_id=job.job_id,
                        workload=job.workload,
                        time=at,
                        code=decision.code,
                        reason=decision.reason,
                        attempts=run_state.attempt_number,
                        deadline=job.deadline,
                    )
                )
                return
            state.progress[job.job_id] = kept
            state.charge_next[job.job_id] = decision.charge_recovery
            queue.push(
                Event(time=decision.at, kind=EventKind.REQUEUE, payload=job)
            )

        # Six-figure streams allocate millions of short-lived objects
        # that all survive (report rows, ledger grants); CPython's
        # generational collector re-scans that growing live set on every
        # gen-2 pass, which turns the loop superlinear.  The loop pauses
        # automatic collection for its duration (nothing here creates
        # reference cycles; collection resumes in the ``finally``).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                event = queue.pop()
                now = event.time
                if event.kind is EventKind.COMPLETION:
                    done: _Completion = event.payload
                    if done.attempt_id in cancelled:
                        continue
                    running.pop(done.attempt_id, None)
                    ledger.pool(done.candidate.replica_site).release(
                        done.data_node_ids
                    )
                    ledger.pool(done.candidate.compute_site).release(
                        done.compute_node_ids
                    )
                    errors.append(
                        (
                            done.job.job_id,
                            abs(done.actual.total - done.predicted_total)
                            / done.actual.total,
                        )
                    )
                    if calibrate and done.full_attempt:
                        calibrator.observe(
                            done.job.workload,
                            done.candidate.replica_site,
                            done.candidate.compute_site,
                            done.raw,
                            done.actual.components,
                        )
                        app = done.job.workload
                        app_epoch[app] = app_epoch.get(app, 0) + 1
                elif event.kind is EventKind.ABORT:
                    assert state is not None
                    attempt_id = event.payload
                    run_state = running.get(attempt_id)
                    if run_state is not None and attempt_id not in cancelled:
                        state.fault_events.append(
                            GridFaultEvent(
                                time=now,
                                kind="transient-failure",
                                target=run_state.job.job_id,
                                detail=(
                                    f"attempt {run_state.attempt_number} aborted"
                                ),
                            )
                        )
                        settle_preemption(run_state, "transient-failure", now)
                elif event.kind is EventKind.FAULT:
                    self._apply_fault(event.payload, now, ledger, state,
                                      running, settle_preemption)
                elif event.kind is EventKind.REPAIR:
                    self._apply_repair(event.payload, now, ledger, state)
                elif event.kind is EventKind.REQUEUE:
                    assert state is not None
                    job = event.payload
                    if job.job_id not in state.terminal:
                        enqueue(job)
                else:
                    job = event.payload
                    try:
                        outcome = self._selection(job)
                    except InfeasibleSelectionError as exc:
                        tagged = exc.tagged(job.arrival_index, job.vo)
                        detail = "; ".join(
                            r.label for r in tagged.rejections[:3]
                        )
                        reject(
                            job,
                            now,
                            "no-feasible-configuration",
                            detail or str(tagged),
                        )
                        continue
                    # Idle-grid options are only built when the policy's
                    # admission check will read them.
                    if policy_impl.wants_admission_options(job):
                        options = job_options(job, outcome)
                    else:
                        options = []
                    refusal = policy_impl.admit(job, options, now)
                    if refusal is not None:
                        reject(job, now, refusal.code, refusal.reason)
                        continue
                    enqueue(job)

                # Placement: serve the queue head while it fits; no backfill.
                while pending:
                    head = pending[0][1]
                    if last_block == (head.job_id, ledger.version):
                        break
                    outcome = self._selection(head)
                    # Feasibility first: one free-count read per
                    # decision, then plain integer compares against the
                    # precomputed per-candidate requirements (a same-site
                    # candidate needs the sum of both node sets from the
                    # one pool).  A blocked head is detected before any
                    # option is priced.
                    reqs = feas_reqs.get(head.dataset_key)
                    if reqs is None:
                        reqs = []
                        for cand in outcome.candidates:
                            if cand.replica_site == cand.compute_site:
                                reqs.append((
                                    cand.replica_site,
                                    None,
                                    cand.data_nodes + cand.compute_nodes,
                                    0,
                                ))
                            else:
                                reqs.append((
                                    cand.replica_site,
                                    cand.compute_site,
                                    cand.data_nodes,
                                    cand.compute_nodes,
                                ))
                        feas_reqs[head.dataset_key] = reqs
                    free = ledger.free_counts()
                    feasible_idx = [
                        i
                        for i, (s1, s2, n1, n2) in enumerate(reqs)
                        if free[s1] >= n1 and (s2 is None or free[s2] >= n2)
                    ]
                    if not feasible_idx:
                        last_block = (head.job_id, ledger.version)
                        break
                    if state is None:
                        # Scalar fast path: score each feasible candidate
                        # with one calibrated float (bit-identical to the
                        # option's predicted_total), let the policy pick
                        # the winning index, and materialize a full
                        # PlacementOption for the winner alone.
                        # Round-robin never reads predictions, so its
                        # decisions skip the correction calls entirely.
                        # Deliberately not cached: the feasible subset is
                        # free-count-shaped, not reusable, and at steady
                        # state a same-workload completion lands between
                        # almost every pair of same-workload placements.
                        cands = outcome.candidates
                        feas_cands = [cands[i] for i in feasible_idx]
                        if policy_impl.needs_totals:
                            app = head.workload
                            totals = [
                                calibrator.correct_total(
                                    app,
                                    cand.replica_site,
                                    cand.compute_site,
                                    cand.prediction,
                                )
                                for cand in feas_cands
                            ]
                        else:
                            totals = []
                        choice = policy_impl.choose_index(
                            head, feas_cands, totals, now
                        )
                        if isinstance(choice, Rejection):
                            decision: PlacementOption | Rejection = choice
                        else:
                            decision = self._options(
                                head,
                                outcome,
                                calibrator,
                                candidates=[feas_cands[choice]],
                            )[0]
                    else:
                        opts = job_options(head, outcome)
                        feasible = [opts[i] for i in feasible_idx]
                        decision = policy_impl.choose(head, feasible, now)
                    heapq.heappop(pending)
                    if isinstance(decision, Rejection):
                        reject(head, now, decision.code, decision.reason)
                        continue
                    attempt_seq += 1
                    self._place(
                        head, decision, now, ledger, queue, placed,
                        attempt_seq, running, state,
                    )

        finally:
            if gc_was_enabled:
                gc.enable()

        # Jobs still queued when the event stream dries up can never be
        # served (nothing is running, nothing will be repaired): settle
        # them terminally so every admitted job is accounted for.
        if state is not None:
            for _, job in sorted(pending):
                attempts = state.failed_attempts.get(job.job_id, 0)
                state.terminal.add(job.job_id)
                state.failures.append(
                    TerminalFailure(
                        job_id=job.job_id,
                        workload=job.workload,
                        time=now,
                        code="stranded-no-capacity",
                        reason=(
                            "no feasible placement before the event stream "
                            "ended (lost capacity was never repaired)"
                        ),
                        attempts=attempts,
                        deadline=job.deadline,
                    )
                )

        self.last_ledger = ledger
        self.last_queue_stats = {
            "events": queue.total_pushed,
            "peak_event_queue_depth": queue.peak_depth,
            "peak_pending_depth": peak_pending,
        }
        placements = tuple(
            placement
            for attempt_id, placement in placed
            if attempt_id not in cancelled
        )
        return PolicyRun(
            policy=policy,
            calibrated=calibrate,
            placements=placements,
            rejections=tuple(rejections),
            error_series=tuple(errors),
            calibration_factors=calibrator.snapshot() if calibrate else {},
            recovery=state.recovery.name if state is not None else None,
            fault_events=tuple(state.fault_events) if state is not None else (),
            preemptions=tuple(state.preemptions) if state is not None else (),
            failures=tuple(state.failures) if state is not None else (),
        )

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

    @hot
    def _apply_fault(
        self,
        payload: Tuple[int, object],
        now: float,
        ledger: GridLedger,
        state: Optional[_FaultState],
        running: Dict[int, _Running],
        settle_preemption,
    ) -> None:
        assert state is not None
        index, spec = payload
        if isinstance(spec, SiteOutage):
            state.fault_events.append(
                GridFaultEvent(
                    time=now,
                    kind="site-outage",
                    target=spec.site,
                    detail=(
                        "permanent"
                        if spec.repair_after is None
                        else f"repair after {spec.repair_after}s"
                    ),
                )
            )
            victims = [
                running[attempt_id]
                for attempt_id in sorted(running)
                if running[attempt_id].uses_site(spec.site)
            ]
            for run_state in victims:
                settle_preemption(run_state, "site-outage", now)
            ledger.pool(spec.site).fail(now)
        elif isinstance(spec, NodePoolShrink):
            removed = ledger.pool(spec.site).shrink(spec.nodes, now)
            state.shrink_victims[index] = removed
            state.fault_events.append(
                GridFaultEvent(
                    time=now,
                    kind="pool-shrink",
                    target=spec.site,
                    detail=f"nodes {sorted(removed)} removed",
                )
            )
            victims = [
                running[attempt_id]
                for attempt_id in sorted(running)
                if running[attempt_id].uses_node(spec.site, removed)
            ]
            for run_state in victims:
                settle_preemption(run_state, "pool-shrink", now)
        elif isinstance(spec, WanDegradation):
            state.wan_active.append(spec)
            state.fault_events.append(
                GridFaultEvent(
                    time=now,
                    kind="wan-degradation",
                    target=f"{spec.site_a}~{spec.site_b}",
                    detail=f"factor {spec.factor}",
                )
            )

    @hot
    def _apply_repair(
        self,
        payload: Tuple[int, object],
        now: float,
        ledger: GridLedger,
        state: Optional[_FaultState],
    ) -> None:
        assert state is not None
        index, spec = payload
        if isinstance(spec, SiteOutage):
            ledger.pool(spec.site).repair(now)
            state.fault_events.append(
                GridFaultEvent(
                    time=now, kind="site-repair", target=spec.site
                )
            )
        elif isinstance(spec, NodePoolShrink):
            victims = state.shrink_victims.get(index, ())
            if victims:
                ledger.pool(spec.site).restore(victims, now)
            state.fault_events.append(
                GridFaultEvent(
                    time=now,
                    kind="pool-restore",
                    target=spec.site,
                    detail=f"nodes {sorted(victims)} restored",
                )
            )
        elif isinstance(spec, WanDegradation):
            state.wan_active.remove(spec)
            state.fault_events.append(
                GridFaultEvent(
                    time=now,
                    kind="wan-restoration",
                    target=f"{spec.site_a}~{spec.site_b}",
                )
            )

    # ------------------------------------------------------------------

    @hot
    def _options(
        self,
        job: BrokerJob,
        outcome: SelectionOutcome,
        calibrator: OnlineCalibrator,
        *,
        remaining: float = 1.0,
        charge: bool = False,
        wan: Optional[Sequence[WanDegradation]] = None,
        candidates: Optional[Sequence[SelectionCandidate]] = None,
    ) -> List[PlacementOption]:
        correct = calibrator.correct
        if candidates is None:
            candidates = outcome.candidates
        return [
            PlacementOption(
                candidate=cand,
                raw=cand.prediction,
                calibrated=correct(
                    job.workload,
                    cand.replica_site,
                    cand.compute_site,
                    cand.prediction,
                ),
                remaining_fraction=remaining,
                resume_charge=(
                    self._recover_charge(job, cand) if charge else 0.0
                ),
                wan_factor=self._wan_factor(
                    cand.replica_site, cand.compute_site, wan
                ),
            )
            for cand in candidates
        ]

    @hot
    def _place(
        self,
        job: BrokerJob,
        option: PlacementOption,
        now: float,
        ledger: GridLedger,
        queue: EventQueue,
        placed: List[Tuple[int, BrokerPlacement]],
        attempt_id: int,
        running: Dict[int, _Running],
        state: Optional[_FaultState],
    ) -> None:
        actual = self._execute(job, option.candidate)
        full_total = (
            actual.t_disk
            + actual.t_network * option.wan_factor
            + actual.t_compute
        )
        charge = option.resume_charge
        duration = option.remaining_fraction * full_total + charge
        start, end = now, now + duration
        data_ids = ledger.pool(option.replica_site).acquire(
            option.data_nodes, job.job_id, start, end
        )
        compute_ids = ledger.pool(option.compute_site).acquire(
            option.compute_nodes, job.job_id, start, end
        )
        attempt_number = 1
        if state is not None:
            attempt_number = state.failed_attempts.get(job.job_id, 0) + 1
        placed.append(
            (
                attempt_id,
                BrokerPlacement(
                    job_id=job.job_id,
                    workload=job.workload,
                    replica_site=option.replica_site,
                    compute_site=option.compute_site,
                    data_nodes=option.data_nodes,
                    compute_nodes=option.compute_nodes,
                    data_node_ids=data_ids,
                    compute_node_ids=compute_ids,
                    arrival=job.arrival,
                    start=start,
                    end=end,
                    predicted_total=option.predicted_total,
                    raw_predicted_total=option.raw.total,
                    deadline=job.deadline,
                    priority=job.priority,
                    attempt=attempt_number,
                    recovery_charge=charge,
                ),
            )
        )
        # remaining_fraction <= 1, charge >= 0, wan_factor >= 1 by
        # construction: inequalities test the fault-free identity values
        # without a float-equality compare.
        full_attempt = option.remaining_fraction >= 1.0 and charge <= 0.0
        effective = actual
        if option.wan_factor > 1.0:
            effective = ActualRun(
                t_disk=actual.t_disk,
                t_network=actual.t_network * option.wan_factor,
                t_compute=actual.t_compute,
                num_passes=actual.num_passes,
            )
        queue.push(
            Event(
                time=end,
                kind=EventKind.COMPLETION,
                payload=_Completion(
                    attempt_id=attempt_id,
                    job=job,
                    candidate=option.candidate,
                    data_node_ids=data_ids,
                    compute_node_ids=compute_ids,
                    raw=option.raw,
                    predicted_total=option.predicted_total,
                    actual=effective,
                    full_attempt=full_attempt,
                ),
            )
        )
        if state is not None:
            running[attempt_id] = _Running(
                attempt_id=attempt_id,
                attempt_number=attempt_number,
                job=job,
                candidate=option.candidate,
                data_node_ids=data_ids,
                compute_node_ids=compute_ids,
                start=start,
                end=end,
                progress_before=1.0 - option.remaining_fraction,
                charge=charge,
                full_total=full_total,
                num_passes=actual.num_passes,
            )
            doomed = state.transient_remaining.get(job.job_id, 0)
            if doomed > 0:
                state.transient_remaining[job.job_id] = doomed - 1
                spec = state.schedule.transient_failures[job.job_id]
                queue.push(
                    Event(
                        time=start + spec.at_fraction * duration,
                        kind=EventKind.ABORT,
                        payload=attempt_id,
                    )
                )

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
        retry: Optional[BrokerRetryPolicy] = None,
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
