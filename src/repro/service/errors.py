"""The service-layer branch of the :class:`~repro.errors.ReproError` tree.

A service that faces heavy traffic is defined by how it fails: every
refusal the resilience pipeline can issue has its own exception type, so
the request handler can map each to the right HTTP status and the right
degraded-mode decision, and embedders still catch everything under
``ReproError``.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = [
    "ServiceError",
    "AdmissionError",
    "CircuitOpenError",
    "BackendError",
    "BackendCrashError",
    "CorruptResponseError",
]


class ServiceError(ReproError):
    """Base class for prediction-service failures."""


class AdmissionError(ServiceError):
    """The token bucket refused the request (load shedding, HTTP 429).

    Carries the deterministic ``retry_after_s`` hint the service returns
    as a ``Retry-After`` header — shedding is an answer, not a drop.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(ServiceError):
    """The (app, cluster) circuit breaker is open; no probe is due yet."""


class BackendError(ServiceError):
    """A backend evaluation attempt failed (crash or corrupt response).

    ``cost_s`` is the modeled time the failed attempt consumed — the
    handler charges it into the request's latency before retrying.
    """

    def __init__(self, message: str, cost_s: float = 0.0) -> None:
        super().__init__(message)
        self.cost_s = cost_s


class BackendCrashError(BackendError):
    """The backend raised instead of producing a prediction."""


class CorruptResponseError(BackendError):
    """The backend produced a payload that failed validation.

    A corrupt prediction (NaN, negative component time) must never be
    served or cached; the attempt is classified as a failure and feeds
    the circuit breaker exactly like a crash.
    """
