"""ASCII rendering of prediction-service metrics and chaos reports."""

from __future__ import annotations

from typing import Any, Dict, List


__all__ = ["format_service_metrics", "format_service_chaos"]


def format_service_metrics(metrics: Dict[str, Any]) -> str:
    """Render one :meth:`PredictionService.metrics` rollup."""
    lines: List[str] = [
        (
            f"requests {metrics['requests']}  served {metrics['served']}  "
            f"shed {metrics['shed']}  stale {metrics['stale_served']}"
        ),
        (
            f"  shed rate {100 * metrics['shed_rate']:.1f}%  "
            f"stale rate {100 * metrics['stale_rate']:.1f}%"
        ),
        (
            f"  latency p50 {1000 * metrics['p50_latency_s']:.3f}ms  "
            f"p99 {1000 * metrics['p99_latency_s']:.3f}ms  "
            f"max {1000 * metrics['max_latency_s']:.3f}ms"
        ),
    ]
    outcomes = metrics.get("by_outcome", {})
    if outcomes:
        rendered = "  ".join(
            f"{key}={outcomes[key]}" for key in sorted(outcomes)
        )
        lines.append(f"  outcomes: {rendered}")
    breakers = metrics.get("breakers", {})
    states = breakers.get("states", {})
    lines.append(f"  breaker opens: {breakers.get('opens', 0)}")
    for key in sorted(states):
        lines.append(f"    {key}: {states[key]}")
    cache = metrics.get("cache")
    if cache is not None:
        lines.append(
            f"  cache: {cache['entries']} entries  "
            f"{cache['stores']} stores  {cache['evictions']} evictions"
        )
    injected = metrics.get("injected_faults")
    if injected:
        rendered = "  ".join(
            f"{kind}={injected[kind]}" for kind in sorted(injected)
        )
        lines.append(f"  injected faults: {rendered}")
    return "\n".join(lines)


def format_service_chaos(report: Any) -> str:
    """Render a :class:`~repro.faults.chaos.ServiceChaosReport`."""
    spec = report.spec
    lines: List[str] = [
        (
            f"service chaos: {len(report.cases)} case(s), "
            f"{spec.requests} request(s) @ {spec.rate_hz:g}/s each"
        ),
        (
            f"  faults: slow {100 * spec.slow_probability:.0f}%  "
            f"crash {100 * spec.crash_probability:.0f}%  "
            f"corrupt {100 * spec.corrupt_probability:.0f}%"
        ),
        f"  verdict: {'PASS' if report.ok else 'FAIL'}",
    ]
    header = (
        f"  {'seed':>6} {'served':>7} {'shed':>6} {'stale':>6} "
        f"{'opens':>6} {'replay':>7} {'violations':>11}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for case in report.cases:
        lines.append(
            f"  {case.seed:>6} {case.served:>7} {case.shed:>6} "
            f"{case.stale_served:>6} {case.breaker_opens:>6} "
            f"{'yes' if case.replay_identical else 'NO':>7} "
            f"{len(case.violations):>11}"
        )
    for violation in report.violations:
        lines.append(f"  ! {violation}")
    return "\n".join(lines)
