"""Spans around the layers several workloads share, and two layer probes.

Layer names are module names under ``src/repro``.  The wrappers go
around public entry points only, so they keep working while a layer's
inside is rewritten:

- ``datagen``    — ``WorkloadSpec.make_dataset``
- ``middleware`` — ``FreerideGRuntime.execute``
- ``apps``       — the ``GeneralizedReduction`` handed to ``execute``
- ``core``       — ``Profile.from_run``, every ``PredictionModel.predict``,
  ``atomic_write_text`` (every durable write ends there)
- ``simgrid``    — ``Simulator.run``, to show that no workload reaches it
"""

from __future__ import annotations

import pathlib
import random
import statistics
import time
from typing import Dict

from bench.tracing import AppProxy, Tracer

LAYERS = (
    "datagen", "apps", "middleware", "simgrid", "core", "workloads",
    "analysis", "broker", "service", "campaign", "lint",
)

DRAIN_EVENTS = 100_000
DURABLE_WRITES = 50
DURABLE_DOC_BYTES = 64 * 1024


def trace_pipeline(tracer: Tracer) -> None:
    """Install the datagen / middleware / apps / core wrappers."""
    from repro.core import PredictionModel, Profile
    from repro.core.degraded import DegradedModePredictor
    from repro.core.durable import atomic_write_text
    from repro.middleware import FreerideGRuntime
    from repro.simgrid.engine import Simulator
    from repro.workloads.registry import WorkloadSpec

    tracer.patch_method(WorkloadSpec, "make_dataset", "datagen.make_dataset")

    execute = FreerideGRuntime.execute

    def execute_with_proxy(runtime, app, dataset):
        return execute(runtime, AppProxy(app, tracer), dataset)

    tracer.replace(FreerideGRuntime, "execute", execute_with_proxy)
    tracer.patch_method(FreerideGRuntime, "execute", "middleware.execute")

    tracer.patch_method(Profile, "from_run", "core.profile_from_run")
    tracer.patch_subclass_methods(PredictionModel, "predict", "core.predict")
    tracer.patch_method(DegradedModePredictor, "predict", "core.predict")
    tracer.patch_function(atomic_write_text, "core.durable_write")
    tracer.patch_method(Simulator, "run", "simgrid.run")


def pipeline_metrics(tracer: Tracer) -> Dict[str, float]:
    """The shared layers' metrics from a finished trace."""
    datasets = tracer.named("datagen.make_dataset")
    chunks = tracer.named("apps.process_chunk")
    reduces = tracer.named("apps.reduce")
    executions = tracer.named("middleware.execute")
    predicts = tracer.named("core.predict")
    from_runs = tracer.named("core.profile_from_run")
    return {
        "datagen.make_dataset_s": sum(s.duration for s in datasets),
        "datagen.datasets": len(datasets),
        "apps.kernel_s": sum(s.duration for s in chunks),
        "apps.chunks": len(chunks),
        "apps.reduce_s": sum(s.duration for s in reduces),
        "middleware.execute_self_s": sum(s.self_s for s in executions),
        "middleware.executions": len(executions),
        "core.predict_us": _median_us(predicts),
        "core.predict_calls": len(predicts),
        "core.profile_from_run_us": _median_us(from_runs),
    }


def _median_us(spans) -> float:
    if not spans:
        return 0.0
    return statistics.median(s.duration for s in spans) * 1e6


def probe_simgrid_drain(seed: int) -> float:
    """Events per second draining a seeded 100k-event ``Simulator`` queue.

    No workload reaches ``Simulator``, so this should move no end-to-end
    metric; it is here so the drain keeps a number of its own.
    """
    from repro.simgrid.engine import Simulator

    rng = random.Random(seed)
    sim = Simulator()
    sink = []
    for i in range(DRAIN_EVENTS):
        sim.schedule(rng.random() * 1000.0, sink.append, i)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if len(sink) != DRAIN_EVENTS:
        raise RuntimeError("simulator drain lost events")
    return DRAIN_EVENTS / elapsed


def probe_durable_write(directory: pathlib.Path, seed: int) -> float:
    """Median milliseconds of ``atomic_write_json`` of a fixed 64 KB document."""
    from repro.core.durable import atomic_write_json

    rng = random.Random(seed)
    document = {
        f"key-{i:04d}": "".join(rng.choices("abcdefghijklmnop", k=48))
        for i in range(DURABLE_DOC_BYTES // 64)
    }
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / "durable-probe.json"
    samples = []
    for _ in range(DURABLE_WRITES):
        start = time.perf_counter()
        atomic_write_json(target, document)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3
