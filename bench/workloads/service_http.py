"""service_http — `repro serve --port` over real sockets, on the real clock.

Set-up starts ``repro serve --port 0 --rate 1000000`` as a child process
(admission raised so the token bucket is never the limit).  The load is
a **closed loop**: two keep-alive connections, each sending its next
request only after the previous reply — callers of this service are
brokers and schedulers that wait for a prediction before placing.  The
requests cycle a seeded ``generate_requests`` list, 80 % predict and
20 % what-if.  One operation is one HTTP request.  Sizing found the
in-process ``PredictionService.handle`` two orders of magnitude cheaper
than the round trip, so the per-layer numbers must show the time in the
HTTP shell, not the model.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import SRC
from bench.harness import Measurement, Traced, Workload, digest, p95
from bench.layers import pipeline_metrics, trace_pipeline
from bench.tracing import Tracer

CONNECTIONS = 2
#: Short enough that every window answers the whole cycle at least once,
#: so the digest of the answers covers the same requests on every run.
REQUESTS = 200
SMOKE_REQUESTS = 20
ADMISSION_RATE = 1_000_000
START_TIMEOUT_S = 60.0


class ServiceHttp(Workload):
    name = "service_http"
    operation = "one HTTP request (closed loop, 2 connections)"
    unit = "requests"
    rss_of = "children"
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.service import RequestMix, demo_profiles, generate_requests

        self.profiles = demo_profiles()
        count = SMOKE_REQUESTS if self.smoke else REQUESTS
        self.requests = generate_requests(
            self.seed,
            count,
            1000.0,
            list(self.profiles),
            mix=RequestMix(predict=0.8, whatif=0.2, status=0.0, broker=0.0),
        )
        self.expected = [self._expected_totals(r) for r in self.requests]
        self.sizes = {
            "requests_in_cycle": count,
            "connections": CONNECTIONS,
            "mix": {"predict": 0.8, "what-if": 0.2},
            "loop": "closed",
        }
        self.port = self._start_server()

    # -- the oracle: the model called directly on the same parameters --

    def _expected_totals(self, request: Any) -> List[float]:
        from repro.core import GlobalReductionModel, ModelClasses, PredictionTarget
        from repro.core.whatif import sweep_configurations
        from repro.workloads.clusters import pentium_myrinet_cluster
        from repro.workloads.configs import make_run_config
        from repro.workloads.registry import WORKLOADS

        profile = self.profiles[request.params["profile"]]
        spec = WORKLOADS[profile.app]
        model = GlobalReductionModel(
            ModelClasses.parse(spec.natural_object_class, spec.natural_global_class)
        )
        cluster = pentium_myrinet_cluster()
        if request.endpoint == "predict":
            config = make_run_config(
                request.params["data_nodes"],
                request.params["compute_nodes"],
                storage_cluster=cluster,
            )
            target = PredictionTarget(
                config=config, dataset_bytes=profile.dataset_bytes
            )
            return [model.predict(profile, target).total]
        template = make_run_config(1, 1, storage_cluster=cluster)
        pairs = [tuple(p) for p in request.params["pairs"]]
        return [
            f.predicted_total
            for f in sweep_configurations(profile, model, template, pairs)
        ]

    @staticmethod
    def _totals_of(endpoint: str, body: Dict[str, Any]) -> List[float]:
        if endpoint == "predict":
            return [body["total"]]
        return [f["predicted_total"] for f in body["forecasts"]]

    # -- the server child ---------------------------------------------

    def _start_server(self) -> int:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--rate", str(ADMISSION_RATE)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.server.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split("http://")[1].split("/")[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                conn.request("GET", "/v1/healthz")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    return port
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.05)

    def close(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None

    # -- the load -----------------------------------------------------

    def _drive(self, seconds: float) -> List[Tuple]:
        """Closed-loop load for ``seconds``; returns per-request records."""
        records: List[List[Tuple]] = [[] for _ in range(CONNECTIONS)]
        errors: List[BaseException] = []
        stop = time.perf_counter() + seconds

        def connection(k: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                index = k
                while time.perf_counter() < stop:
                    request = self.requests[index % len(self.requests)]
                    body = json.dumps({"params": request.params})
                    sent = time.perf_counter()
                    conn.request(
                        "POST",
                        "/v1/" + request.endpoint,
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                    latency = time.perf_counter() - sent
                    records[k].append(
                        (index % len(self.requests), response.status, raw, latency)
                    )
                    index += CONNECTIONS
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=connection, args=(k,)) for k in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [r for per in records for r in per]

    def _judge(self, records: List[Tuple]) -> Dict[str, Any]:
        """Check every reply against the oracle; count the outcomes."""
        problems: List[str] = []
        fresh = stale = refused = 0
        seen: Dict[int, List[float]] = {}
        for index, status, raw, _latency in records:
            if status != 200:
                refused += 1
                continue
            body = json.loads(raw)
            if body.get("stale"):
                stale += 1
                continue
            fresh += 1
            totals = self._totals_of(self.requests[index].endpoint, body)
            seen[index] = totals
            if totals != self.expected[index] and len(problems) < 5:
                problems.append(
                    f"request {index}: service answered {totals}, "
                    f"model.predict gives {self.expected[index]}"
                )
        return {
            "problems": problems,
            "fresh": fresh,
            "stale": stale,
            "refused": refused,
            "digest": digest(sorted(seen.items())),
        }

    def measure(self, seconds: float) -> Measurement:
        with self.window():
            records = self._drive(seconds)
        verdict = self._judge(records)
        completed = verdict["fresh"] + verdict["stale"]
        return Measurement(
            samples_ms=[r[3] * 1e3 for r in records],
            units=completed,
            attempted=len(records),
            failed=verdict["refused"],
            digests={"totals": verdict["digest"]},
            problems=verdict["problems"],
            details={k: verdict[k] for k in ("fresh", "stale", "refused")},
        )

    # -- the traced run: the same requests through handle(), in-process --

    def _new_service(self) -> Any:
        from repro.service import (
            MonotonicClock,
            PredictionService,
            ResilienceConfig,
            ServiceBackend,
            ServiceCostModel,
        )

        return PredictionService(
            self.profiles,
            clock=MonotonicClock(),
            config=ResilienceConfig(
                admission_rate=float(ADMISSION_RATE), admission_burst=64.0
            ),
            backend=ServiceBackend(ServiceCostModel()),
        )

    def _handle_all(self, service: Any) -> List[Tuple[str, float]]:
        from repro.service import ServiceRequest

        out = []
        for i, request in enumerate(self.requests):
            fresh = ServiceRequest(
                request_id=f"bench-{i}",
                endpoint=request.endpoint,
                params=request.params,
            )
            start = time.perf_counter()
            service.handle(fresh)
            out.append((request.endpoint, time.perf_counter() - start))
        return out

    def trace(self, tracer: Tracer, seconds: float) -> Traced:
        from repro.service import PredictionService

        records = self._drive(seconds / 2.0)
        verdict = self._judge(records)
        http_ms = [r[3] * 1e3 for r in records]
        http_p50_ms = statistics.median(http_ms)

        untraced = self._handle_all(self._new_service())
        trace_pipeline(tracer)
        tracer.patch_method(PredictionService, "handle", "service.handle")
        try:
            traced = self._handle_all(self._new_service())
        finally:
            tracer.unpatch()

        def us(endpoint: Optional[str]) -> float:
            return statistics.median(
                t for e, t in untraced if endpoint in (None, e)
            ) * 1e6

        answered = len(records)
        metrics = pipeline_metrics(tracer)
        metrics.update({
            "service.handle_us": us(None),
            "service.predict_handle_us": us("predict"),
            "service.whatif_handle_us": us("what-if"),
            "service.http_p50_ms": http_p50_ms,
            "service.http_shell_ms": http_p50_ms - us(None) / 1e3,
            # p95: half a window (some 340 requests) leaves ten samples beyond it.
            "service.http_p95_ms": p95(http_ms),
            "service.fresh_share": verdict["fresh"] / answered,
            "service.stale_share": verdict["stale"] / answered,
            "service.refused_share": verdict["refused"] / answered,
        })
        return Traced(
            metrics=metrics,
            untraced_ms=[sum(t for _, t in untraced) * 1e3],
            traced_ms=[sum(t for _, t in traced) * 1e3],
            attempted=answered,
            failed=verdict["refused"],
            digests={"totals": verdict["digest"]},
            problems=verdict["problems"],
            details={"http_requests": answered},
        )
