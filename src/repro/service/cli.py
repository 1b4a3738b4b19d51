"""The ``repro serve`` command: prediction-as-a-service.

:data:`repro.cli.COMMANDS` names this module as the command's owner and
calls :func:`register_serve` to fill in its arguments and handler.  A
seeded simulated smoke run by default, the service chaos campaign with
``--chaos``, or a real HTTP server with ``--port`` (DESIGN.md
§15); the chaos harness and the HTTP shell are imported by the mode
that runs them.
"""

from __future__ import annotations

import argparse

from repro.analysis import format_service_chaos, format_service_metrics
from repro.service.app import PredictionService, serve_sequence
from repro.service.backends import ServiceBackend, ServiceCostModel
from repro.service.clock import MonotonicClock, VirtualClock
from repro.service.resilience import ResilienceConfig
from repro.service.workload import demo_profiles, generate_requests

__all__ = ["register_serve"]


def _cmd_serve(args) -> int:
    if args.chaos:
        from repro.faults.chaos import ServiceChaosSpec, run_service_campaign

        spec = ServiceChaosSpec(requests=args.requests, rate_hz=args.rate)
        report = run_service_campaign(
            seeds=range(args.seed, args.seed + args.cases), spec=spec
        )
        print(format_service_chaos(report))
        return 0 if report.ok else 1

    profiles = demo_profiles()
    config = ResilienceConfig(admission_rate=args.rate, admission_burst=64.0)
    if args.port is not None:
        from repro.service.http import make_server

        service = PredictionService(
            profiles,
            clock=MonotonicClock(),
            config=config,
            backend=ServiceBackend(ServiceCostModel()),
        )
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port}/v1/  (Ctrl-C to stop)")
        try:
            server.serve_forever(poll_interval=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
        print()
        print(format_service_metrics(service.metrics()))
        return 0

    service = PredictionService(
        profiles,
        clock=VirtualClock(),
        config=config,
        backend=ServiceBackend(ServiceCostModel()),
        campaign_journals={"demo": "service-demo.journal"},
    )
    requests = generate_requests(
        args.seed, args.requests, args.rate, profiles
    )
    responses = serve_sequence(service, requests)
    print(
        f"smoke: served {len(responses)} seeded request(s) "
        f"(seed {args.seed}, {args.rate:g} req/s offered)"
    )
    print(format_service_metrics(service.metrics()))
    return 0


def register_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--requests", type=int, default=200,
        help="requests per run (smoke/chaos; default 200)",
    )
    p.add_argument(
        "--rate", type=float, default=600.0,
        help="offered load in requests/s (default 600)",
    )
    p.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (and first chaos seed; default 1)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="run the seeded service chaos campaign and verify the "
        "settle-exactly-once / latency / replay invariants",
    )
    p.add_argument(
        "--cases", type=int, default=3,
        help="chaos seeds to run, starting at --seed (default 3)",
    )
    p.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve real HTTP on PORT (0 = pick a free port) instead "
        "of a simulated run",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=_cmd_serve)
