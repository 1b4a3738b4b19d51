"""Lazy package exports keep the public surface (``repro._lazy``).

Every re-export-only package ``__init__`` under ``src/repro`` imports
nothing at import time and resolves its public names on first access.
These tests pin what must not change while it does so: the names and
the objects they denote.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: ``__all__`` of every converted package as it was at a99611a, the last
#: commit with eager ``__init__`` files: an export cannot vanish silently.
#: Deliberate removals since: ``repro.analysis``'s renderer of the
#: two-engine broker throughput benchmark, deleted with that benchmark;
#: ``repro.lint.perf``'s call-profile names, deleted with the profile;
#: ``repro.core``'s batch scheduler names, deleted with
#: ``core/allocation.py`` (``GridBroker`` places a batch);
#: ``repro.faults``'s ``select_failover_replica``, deleted with the
#: injector's replica-catalog failover (a scenario's ``replicas`` list
#: is the one failover path); ``repro.simgrid``'s ``maxmin_fair_share``,
#: which nothing outside its own tests called; ``repro.campaign``'s
#: process-pool start-up proof and its error, deleted because tier-1
#: and CI's ``--effects`` gate make the same proof; the process-pool
#: campaign runner with the effect layer's list of its entry points,
#: since campaigns run serially on one kernel book; ``repro.faults``'s
#: ``results_equal``, a test-only helper now in ``tests/conftest.py``.
PARENT_ALL = {
    "repro": """
        FaultError RecoveryExhaustedError ReproError
    """,
    "repro.analysis": """
        ComponentShares EXPECTATIONS FigureExpectation RowDelta
        check_expectation compare_results error_bar_chart
        error_summary format_broker format_campaign format_error_trend
        format_experiment format_fault_events format_policy_run
        format_resilience format_service_chaos format_service_metrics
        format_shares format_summary format_trace
        horizontal_bar load_result mean model_ordering_holds
        result_from_dict result_to_dict save_result shares_of
        sweep_shares worst_configuration
    """,
    "repro.broker": """
        ActualRun BrokerJob BrokerPlacement BrokerPreemption
        BrokerRejection BrokerReport BrokerWorkloadDoc
        CorrectionFactor DeadlineAwarePolicy Event EventKind
        EventQueue GiveUp GridBroker GridFaultEvent GridLedger
        Incident MigratePolicy MinCompletionPolicy MinCostPolicy
        NodeWindow OnlineCalibrator OutageRecord POLICY_NAMES
        PlacementOption PlacementPolicy PolicyRun RECOVERY_NAMES
        RecoveryPolicy Rejection Requeue ResubmitPolicy
        RoundRobinPolicy SitePool TerminalFailure
        load_workload_document make_policy make_recovery
        parse_workload_document sorted_jobs
    """,
    "repro.campaign": """
        CampaignEntry CampaignInterruptedError CampaignJournal
        CampaignManifest CampaignOutcome CampaignReport CampaignRunner
        DeadlineExceededError ENTRY_STATUSES EXIT_INTERRUPTED EXIT_OK
        EXIT_PROBLEMS JOURNAL_FORMAT_VERSION JournalRecord
        load_manifest manifest_from_dict
        manifest_to_dict paper_suite_manifest run_with_deadline
    """,
    "repro.core": """
        ComponentScalingFactors ConfigurationForecast CorruptStoreError
        CrossClusterPredictor DegradedModePredictor DegradedPrediction
        FormatVersionError GlobalReductionClass GlobalReductionModel
        InfeasibleSelectionError ModelClasses NoCommunicationModel
        PredictedBreakdown PredictionModel PredictionTarget Profile
        RecoveryBreakdown ReductionCommunicationModel
        ReductionObjectClass RejectedCandidate ResourceSelector
        SelectionCandidate SelectionOutcome StoreError
        atomic_write_json atomic_write_text classify_global_reduction
        classify_object_size estimate_global_reduction_time
        estimate_object_size marginal_speedups measure_scaling_factors
        recommend_nodes relative_error sweep_configurations
    """,
    "repro.datagen": """
        DEFECT_TEMPLATES FieldDataset LatticeDataset generate_lattice
        generate_transactions generate_velocity_field make_blobs
        make_field_dataset make_labeled_points make_lattice_dataset
        make_point_dataset make_training_dataset
        make_transaction_dataset
    """,
    "repro.faults": """
        ChunkReadError ComputeNodeCrash
        DEFAULT_BROKER_RETRY_POLICY DEFAULT_RETRY_POLICY DataNodeCrash
        EXECUTION_FAULT_KINDS FaultError FaultInjector FaultSchedule
        FaultSpec GRID_FAULT_KINDS GridFaultScenario GridFaultSchedule
        GridFaultSpec LinkDegradation NodePoolShrink
        RecoveryExhaustedError RetryPolicy SiteOutage SlowNode
        TransientJobFailure WATCHDOG_RETRY_POLICY WanDegradation
        grid_scenario_from_dict grid_schedule_from_dict
        injector_from_dict load_grid_scenario load_scenario
        schedule_from_dict
    """,
    "repro.lint": """
        Baseline BaselinePartition CERTIFICATE_NAME EFFECT_CODES
        EFFECT_RULES FLOW_CODES FLOW_RULES Finding Fix LintError
        LintReport ModuleContext PARSE_ERROR_CODE ProgramRule
        REPORT_FORMATS RULES Rule all_rules analyze_effects
        analyze_paths apply_fixes iter_python_files lint_file
        lint_paths lint_source load_certificate register render
        render_github render_json render_text write_certificate
    """,
    "repro.lint.effects": """
        CERTIFICATE_NAME EFFECT_CODES EFFECT_RULES
        EffectAnalysis EffectPass TIER_DETERMINISTIC TIER_EFFECTFUL
        TIER_POOL_SAFE TIER_PURE TIER_RANK analyze_effects
        build_certificate certificate_demotions effect_findings
        load_certificate propagate_effects write_certificate
    """,
    "repro.lint.flow": """
        FLOW_CODES FLOW_RULES FlowPass analyze_paths
    """,
    "repro.lint.perf": """
        PERF_CODES PERF_RULES PerfPass analyze_perf
    """,
    "repro.middleware": """
        ArrayDataset CacheModel ChunkAssignment ComputeServer
        DataServer Dataset FreerideGRuntime GatherTopology
        GeneralizedReduction KernelTrace OpCounter Replica
        ReplicaCatalog RunConfig RunResult assign_chunks
    """,
    "repro.service": """
        AdmissionError BackendCrashError BackendError BackendFaultSpec
        BreakerBank BreakerState Bulkhead BulkheadConfig
        BulkheadFullError CircuitBreaker CircuitOpenError
        CorruptResponseError DeadlineBudget ENDPOINTS MonotonicClock
        PredictionService RequestLog RequestMix RequestRecord
        ResilienceConfig ServiceBackend ServiceClock ServiceCostModel
        ServiceError ServiceFaultInjector ServiceGateway ServiceRequest
        ServiceResponse TokenBucket VirtualClock demo_profiles
        generate_requests make_server serve_sequence
    """,
    "repro.simgrid": """
        CPUSpec ClusterSpec CommCostModel ConfigurationError DiskModel
        DiskSpec Event GridTopology LinkModel NICSpec
        NodeSpec OpCategory OpVector PassRecord RepositoryDiskSystem
        SimulationError Simulator SiteKind TimeBreakdown TopologyError
        fit_linear_cost
    """,
    "repro.workloads": """
        DEFAULT_BANDWIDTH PAPER_CONFIG_GRID StreamSpec WORKLOADS
        WorkloadSpec config_grid generate_stream make_app make_dataset
        make_run_config opteron_infiniband_cluster
        pentium_myrinet_cluster
    """,
    "repro.workloads.traces": """
        DEFAULT_GWF_MAPPING DISTRIBUTION_KINDS DistributionSpec
        DiurnalSpec GWF_COLUMNS GwfMapping REFERENCE_ALLOCATIONS
        TRACE_FORMAT_VERSION TRACE_PRESETS TraceSpec TraceWorkload
        VoSpec generate_trace make_preset modulated_arrivals parse_gwf
        realize_jobs reference_grid split_counts trace_to_gwf
    """,
}

PACKAGES = sorted(PARENT_ALL)


def init_source(package: str) -> ast.Module:
    path = SRC.joinpath(*package.split("."), "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def declared_exports(package: str) -> dict:
    """The ``{leaf: names}`` literal the ``__init__`` hands lazy_exports."""
    (call,) = [
        node.value
        for node in init_source(package).body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", "") == "lazy_exports"
    ]
    return ast.literal_eval(call.args[1])


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_parent_commits_list(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == PARENT_ALL[package].split()
    assert set(dir(module)) >= set(module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_the_leaf_modules_object(package):
    module = importlib.import_module(package)
    for leaf, names in declared_exports(package).items():
        for name in names:
            assert getattr(module, name) is getattr(
                importlib.import_module(leaf), name
            ), f"{package}.{name}"
            # Resolved once, then an ordinary module global.
            assert vars(module)[name] is getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_fail_the_usual_way(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope
    with pytest.raises(ImportError):
        exec(f"from {package} import nope", {})
    assert not hasattr(module, "nope")


@pytest.mark.parametrize("package", PACKAGES)
def test_from_import_works_before_anything_loaded_the_leaf(package):
    leaf, names = next(iter(declared_exports(package).items()))
    script = (
        "import sys\n"
        f"import {package}\n"
        f"assert {leaf!r} not in sys.modules, 'package import loaded a leaf'\n"
        f"from {package} import {names[0]}\n"
        f"assert {names[0]} is getattr(sys.modules[{leaf!r}], {names[0]!r})\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", PACKAGES)
def test_the_init_imports_the_helper_and_nothing_else(package):
    """The import rule (docs/architecture.md): a package ``__init__``
    imports nothing at import time, under no spelling."""
    imports = [
        ast.unparse(node)
        for node in ast.walk(init_source(package))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == ["from repro._lazy import lazy_exports"]


def test_pickle_round_trips_under_the_leaf_module_name():
    from repro.faults import RetryPolicy

    policy = RetryPolicy(
        max_attempts=3, base_backoff_s=0.0, backoff_factor=1.0, max_backoff_s=0.0
    )
    assert type(policy).__module__ == "repro.faults.retry"
    payload = pickle.dumps(policy)
    assert b"repro.faults.retry" in payload
    assert pickle.loads(payload) == policy


def test_the_helper_is_the_only_module_getattr_in_the_tree():
    """One PEP 562 hook implementation, and every package ``__init__``
    either uses it or holds real definitions of its own."""
    implementations = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "def __getattr__(name" in path.read_text(encoding="utf-8")
    ]
    assert implementations == ["repro/_lazy.py"]
    eager = sorted(
        path.parent.relative_to(SRC).as_posix().replace("/", ".")
        for path in SRC.rglob("__init__.py")
        if "lazy_exports(" not in path.read_text(encoding="utf-8")
    )
    # apps holds the APP_FACTORIES table; lint.rules registers the rules
    # by importing them.
    assert eager == ["repro.apps", "repro.lint.rules"]
