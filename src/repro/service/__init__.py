"""Resilient prediction-as-a-service over the prediction core.

The paper frames prediction as an offline modeling exercise; a grid
broker that consults predictions for every placement needs it as a
long-running shared *service* that stays predictable when the world is
not — overload, slow backends, crashing backends, corrupt responses.
This package is that service, resilience-first (DESIGN.md §15):

- :mod:`repro.service.app` — the four endpoints behind one pipeline:
  admission → deadline budget → circuit breaker → graceful
  degradation.
- :mod:`repro.service.resilience` — the pipeline's primitives, its
  constants, and ``ResilienceConfig`` (admission, the one caller-set
  knob).
- :mod:`repro.service.backends` — modeled backend costs + seeded fault
  injection (the chaos door).
- :mod:`repro.service.clock` — virtual vs. monotonic time.
- :mod:`repro.service.workload` — seeded request scenarios.
- :mod:`repro.service.http` — the threaded HTTP shell behind
  ``repro serve --port``: one mutex serializes every request into the
  service.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.service.app": (
            "ENDPOINTS",
            "PredictionService",
            "RequestLog",
            "RequestRecord",
            "ServiceRequest",
            "ServiceResponse",
            "serve_sequence",
        ),
        "repro.service.backends": (
            "BackendFaultSpec",
            "ServiceBackend",
            "ServiceCostModel",
            "ServiceFaultInjector",
        ),
        "repro.service.clock": (
            "MonotonicClock",
            "ServiceClock",
            "VirtualClock",
        ),
        "repro.service.http": ("ServiceGateway", "make_server"),
        "repro.service.errors": (
            "AdmissionError",
            "BackendCrashError",
            "BackendError",
            "CircuitOpenError",
            "CorruptResponseError",
            "ServiceError",
        ),
        "repro.service.resilience": (
            "BreakerBank",
            "BreakerState",
            "CircuitBreaker",
            "DeadlineBudget",
            "ResilienceConfig",
            "TokenBucket",
        ),
        "repro.service.workload": (
            "RequestMix",
            "demo_profiles",
            "generate_requests",
        ),
    },
)
