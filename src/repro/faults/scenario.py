"""Fault-scenario files: JSON in, schedules/injectors out.

Two scenario scopes share this module:

**Execution scope** drives ``repro run --faults scenario.json`` — faults
inside one middleware execution::

    {
      "seed": 42,
      "replicas": ["repo-b"],
      "retry_policy": {"max_attempts": 5, "base_backoff_s": 0.01},
      "checkpoints": true,
      "faults": [
        {"type": "data-node-crash", "pass": 0, "data_node": 1,
         "at_fraction": 0.5},
        {"type": "compute-node-crash", "pass": 1, "compute_node": 3,
         "at_fraction": 0.25},
        {"type": "link-degradation", "data_node": 0, "factor": 2.0},
        {"type": "slow-node", "compute_node": 2, "factor": 1.5,
         "from_pass": 1},
        {"type": "chunk-read-error", "rate": 0.05}
      ]
    }

**Grid scope** drives ``repro broker --faults scenario.json`` — grid
weather delivered through the broker's event queue::

    {
      "recovery": "migrate",
      "retry": {"max_attempts": 3, "base_backoff_s": 0.02},
      "grid_faults": [
        {"type": "site-outage", "site": "hpc-1", "at": 2.0,
         "repair_after": 4.0},
        {"type": "node-pool-shrink", "site": "hpc-2", "at": 1.0,
         "nodes": 8, "restore_after": 6.0},
        {"type": "wan-degradation", "a": "repo-a", "b": "hpc-1",
         "factor": 2.0, "at": 0.0, "duration": 5.0},
        {"type": "transient-job-failure", "job": "job0007-kmeans",
         "failures": 1, "at_fraction": 0.5}
      ]
    }

Every key except the fault list is optional.  An unknown fault kind — or
a kind used in the wrong scope — raises
:class:`~repro.simgrid.errors.ConfigurationError` naming the valid kinds
of both scopes; malformed fields of a *known* kind raise
:class:`~repro.errors.FaultError`, and a number field that is not a
finite JSON number (a string, a list, ``NaN``, 2.5 nodes) a
``ConfigurationError`` naming it.  A typo in a scenario must not
silently produce a fault-free run.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.durable import json_number
from repro.errors import FaultError
from repro.faults.grid import (
    GridFaultSchedule,
    GridFaultSpec,
    NodePoolShrink,
    SiteOutage,
    TransientJobFailure,
    WanDegradation,
)
from repro.faults.injector import FaultInjector
from repro.faults.retry import (
    DEFAULT_BROKER_RETRY_POLICY,
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
)
from repro.faults.specs import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultSchedule,
    FaultSpec,
    LinkDegradation,
    SlowNode,
)
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "EXECUTION_FAULT_KINDS",
    "GRID_FAULT_KINDS",
    "schedule_from_dict",
    "injector_from_dict",
    "load_scenario",
    "grid_fault_from_dict",
    "grid_schedule_from_dict",
    "GridFaultScenario",
    "grid_scenario_from_dict",
    "load_grid_scenario",
]

#: Execution-scoped fault kinds (``repro run --faults``), canonical order.
EXECUTION_FAULT_KINDS = (
    "data-node-crash",
    "compute-node-crash",
    "link-degradation",
    "slow-node",
    "chunk-read-error",
)

#: Grid-scoped fault kinds (``repro broker --faults``), canonical order.
GRID_FAULT_KINDS = (
    "site-outage",
    "node-pool-shrink",
    "wan-degradation",
    "transient-job-failure",
)


def _unknown_kind(kind: Any, scope: str) -> ConfigurationError:
    """The error for a fault kind that fits neither scope."""
    return ConfigurationError(
        f"unknown fault type {kind!r}; {scope} scenarios accept "
        f"{', '.join(EXECUTION_FAULT_KINDS if scope == 'execution' else GRID_FAULT_KINDS)} "
        f"(the other scope's kinds are "
        f"{', '.join(GRID_FAULT_KINDS if scope == 'execution' else EXECUTION_FAULT_KINDS)})"
    )


def _scope_mismatch(kind: str, found_in: str) -> ConfigurationError:
    """The error for a valid kind appearing in the wrong scope."""
    if found_in == "execution":
        return ConfigurationError(
            f"'{kind}' is a grid-scoped fault and belongs in a broker "
            f"fault scenario ('grid_faults' list, `repro broker --faults`); "
            f"execution scenarios accept {', '.join(EXECUTION_FAULT_KINDS)}"
        )
    return ConfigurationError(
        f"'{kind}' is an execution-scoped fault and belongs in a "
        f"`repro run --faults` scenario ('faults' list); grid scenarios "
        f"accept {', '.join(GRID_FAULT_KINDS)}"
    )


#: fault kind -> (spec class, JSON key -> (spec field, default, type)).
#: A ``...`` default marks a required key; only a ``None`` default lets
#: the key be ``null``.  Numbers are read by :func:`json_number`.
_FieldTable = Dict[str, Tuple[type, Dict[str, Tuple[str, Any, type]]]]
_EXECUTION_SPECS: _FieldTable = {
    "data-node-crash": (DataNodeCrash, {
        "pass": ("pass_index", ..., int),
        "data_node": ("data_node", ..., int),
        "at_fraction": ("at_fraction", 0.5, float),
    }),
    "compute-node-crash": (ComputeNodeCrash, {
        "pass": ("pass_index", ..., int),
        "compute_node": ("compute_node", ..., int),
        "at_fraction": ("at_fraction", 0.5, float),
    }),
    "link-degradation": (LinkDegradation, {
        "data_node": ("data_node", ..., int),
        "factor": ("factor", ..., float),
        "from_pass": ("from_pass", 0, int),
        "until_pass": ("until_pass", None, int),
    }),
    "slow-node": (SlowNode, {
        "compute_node": ("compute_node", ..., int),
        "factor": ("factor", ..., float),
        "from_pass": ("from_pass", 0, int),
        "until_pass": ("until_pass", None, int),
    }),
    "chunk-read-error": (ChunkReadError, {
        "rate": ("rate", 0.0, float),
        "pass": ("pass_index", None, int),
        "data_node": ("data_node", None, int),
        "failures": ("failures", None, dict),
    }),
}
_GRID_SPECS: _FieldTable = {
    "site-outage": (SiteOutage, {
        "site": ("site", ..., str),
        "at": ("at", ..., float),
        "repair_after": ("repair_after", None, float),
    }),
    "node-pool-shrink": (NodePoolShrink, {
        "site": ("site", ..., str),
        "at": ("at", ..., float),
        "nodes": ("nodes", ..., int),
        "restore_after": ("restore_after", None, float),
    }),
    "wan-degradation": (WanDegradation, {
        "a": ("site_a", ..., str),
        "b": ("site_b", ..., str),
        "factor": ("factor", ..., float),
        "at": ("at", 0.0, float),
        "duration": ("duration", None, float),
    }),
    "transient-job-failure": (TransientJobFailure, {
        "job": ("job_id", ..., str),
        "failures": ("failures", 1, int),
        "at_fraction": ("at_fraction", 0.5, float),
    }),
}


def _typed(value: Any, key: str, of_type: type, kind: str) -> Any:
    """One field of a ``kind`` fault spec, or an error naming it."""
    where = f"'{kind}' fault spec: "
    if of_type is int or of_type is float:
        return json_number(key, value, of_type is int, where=where)
    if not isinstance(value, of_type):
        expected = "a string" if of_type is str else "an object"
        raise FaultError(f"{where}'{key}' must be {expected}, got {value!r:.40}")
    return value


def _chunk_failures(failures: Mapping[str, Any]) -> Dict[int, int]:
    """A chunk-read-error's ``{"<chunk index>": <failures>}`` object."""
    out: Dict[int, int] = {}
    for chunk, count in failures.items():
        if not (chunk.isascii() and chunk.isdigit()):
            raise FaultError(
                "'chunk-read-error' fault spec: 'failures' keys must be chunk "
                f"indices, got {chunk!r:.40}"
            )
        out[int(chunk)] = json_number(
            "failures", count, True, where="'chunk-read-error' fault spec: "
        )
    return out


def _parse_fault(data: Any, scope: str) -> Any:
    """One fault spec of ``scope`` (``"execution"`` or ``"grid"``)."""
    if not isinstance(data, Mapping):
        raise FaultError(
            f"each fault spec must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("type")
    specs, others = (
        (_EXECUTION_SPECS, _GRID_SPECS) if scope == "execution"
        else (_GRID_SPECS, _EXECUTION_SPECS)
    )
    if isinstance(kind, str) and kind in others:
        raise _scope_mismatch(kind, scope)
    if not isinstance(kind, str) or kind not in specs:
        raise _unknown_kind(kind, scope)
    spec_class, fields = specs[kind]
    unknown = set(data) - set(fields) - {"type"}
    if unknown:
        raise FaultError(
            f"unknown key(s) {sorted(unknown)} in '{kind}' fault spec"
        )
    args: Dict[str, Any] = {}
    for key, (name, default, of_type) in fields.items():
        value = data.get(key, default)
        if value is ...:
            raise FaultError(f"'{kind}' fault spec requires key '{key}'")
        if value is not None or default is not None:
            value = _typed(value, key, of_type, kind)
        args[name] = value
    if kind == "chunk-read-error" and args["failures"] is not None:
        args["failures"] = _chunk_failures(args["failures"])
    return spec_class(**args)


def grid_fault_from_dict(data: Mapping[str, Any]) -> GridFaultSpec:
    """Parse one grid-scoped fault spec mapping."""
    fault: GridFaultSpec = _parse_fault(data, "grid")
    return fault


def _retry_policy(raw: Any, what: str) -> RetryPolicy:
    """A :class:`RetryPolicy` from the scenario's ``what`` object."""
    if not isinstance(raw, Mapping):
        raise FaultError(f"bad {what}: expected an object, got {raw!r:.40}")
    try:
        return RetryPolicy(**{
            key: None if value is None and key == "per_chunk_timeout_s"
            else json_number(key, value, key == "max_attempts", where=f"{what}: ")
            for key, value in raw.items()
        })
    except TypeError as exc:  # a key RetryPolicy does not have
        raise FaultError(f"bad {what}: {exc}") from exc


def schedule_from_dict(data: Mapping[str, Any]) -> FaultSchedule:
    """Build an execution-scoped :class:`FaultSchedule` from a mapping."""
    faults_raw = data.get("faults", [])
    if not isinstance(faults_raw, list):
        raise FaultError("'faults' must be a list of fault specs")
    faults: List[FaultSpec] = [_parse_fault(f, "execution") for f in faults_raw]
    checkpoints = data.get("checkpoints")
    if checkpoints is not None and not isinstance(checkpoints, bool):
        raise FaultError("'checkpoints' must be a boolean when present")
    return FaultSchedule(faults=faults, checkpoints=checkpoints)


def grid_schedule_from_dict(data: Mapping[str, Any]) -> GridFaultSchedule:
    """Build a :class:`GridFaultSchedule` from a decoded scenario mapping."""
    faults_raw = data.get("grid_faults", data.get("faults", []))
    if not isinstance(faults_raw, list):
        raise FaultError("'grid_faults' must be a list of fault specs")
    return GridFaultSchedule([grid_fault_from_dict(f) for f in faults_raw])


def injector_from_dict(data: Mapping[str, Any]) -> FaultInjector:
    """Build a fully configured :class:`FaultInjector` from a mapping."""
    schedule = schedule_from_dict(data)
    policy_raw = data.get("retry_policy")
    policy = (
        DEFAULT_RETRY_POLICY if policy_raw is None
        else _retry_policy(policy_raw, "retry_policy")
    )
    replicas = data.get("replicas", ["standby-replica"])
    if not isinstance(replicas, list):
        raise FaultError("'replicas' must be a list of site names")
    return FaultInjector(
        schedule,
        policy=policy,
        seed=json_number("seed", data.get("seed", 0), True),
        replica_sites=[str(site) for site in replicas],
    )


@dataclass(frozen=True)
class GridFaultScenario:
    """A parsed grid fault scenario: schedule + recovery configuration.

    ``recovery`` is ``None`` when the scenario leaves the recovery
    policy to the caller (the CLI's ``--recovery`` flag wins over the
    file either way).
    """

    schedule: GridFaultSchedule
    retry: RetryPolicy = DEFAULT_BROKER_RETRY_POLICY
    recovery: Optional[str] = None


def grid_scenario_from_dict(data: Mapping[str, Any]) -> GridFaultScenario:
    """Build a :class:`GridFaultScenario` from a decoded mapping."""
    schedule = grid_schedule_from_dict(data)
    retry_raw = data.get("retry")
    retry = (
        DEFAULT_BROKER_RETRY_POLICY if retry_raw is None
        else _retry_policy(retry_raw, "retry")
    )
    recovery = data.get("recovery")
    if recovery is not None:
        recovery = str(recovery)
    return GridFaultScenario(schedule=schedule, retry=retry, recovery=recovery)


def _load_json_object(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    p = pathlib.Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FaultError(f"fault scenario file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise FaultError(f"fault scenario {p} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FaultError(
            f"fault scenario {p} is not UTF-8 text (byte {exc.start})"
        ) from exc
    except OSError as exc:
        raise FaultError(
            f"cannot read fault scenario {p}: {exc.strerror or exc}"
        ) from exc
    if not isinstance(data, dict):
        raise FaultError(f"fault scenario {p} must contain a JSON object")
    return data


def load_scenario(path: Union[str, pathlib.Path]) -> FaultInjector:
    """Load an execution-scoped fault-scenario JSON file into an injector."""
    return injector_from_dict(_load_json_object(path))


def load_grid_scenario(path: Union[str, pathlib.Path]) -> GridFaultScenario:
    """Load a grid-scoped fault-scenario JSON file."""
    return grid_scenario_from_dict(_load_json_object(path))
