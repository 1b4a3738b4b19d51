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

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.durable import REQUIRED, json_field, json_number, json_value
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


#: fault kind -> (spec class, JSON key -> (spec field, default, type)),
#: each key read by :func:`~repro.core.durable.json_field` (``...`` is
#: its ``REQUIRED``).
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


def _parse_fault(data: Mapping[str, Any], scope: str) -> Any:
    """One fault spec of ``scope`` (``"execution"`` or ``"grid"``)."""
    kind = data.get("type")
    specs, others = (
        (_EXECUTION_SPECS, _GRID_SPECS) if scope == "execution"
        else (_GRID_SPECS, _EXECUTION_SPECS)
    )
    # Compared, not hashed: ``type`` may be any JSON value.
    if kind in [*others]:
        raise _scope_mismatch(kind, scope)
    if kind not in [*specs]:
        raise _unknown_kind(kind, scope)
    spec_class, fields = specs[kind]
    where = f"'{kind}' fault spec: "
    json_value(
        f"{kind} fault spec", data, dict, known=[*fields, "type"], error=FaultError
    )
    args = {
        name: json_field(data, key, of_type, default, where=where, error=FaultError)
        for key, (name, default, of_type) in fields.items()
    }
    if kind == "chunk-read-error" and args["failures"] is not None:
        args["failures"] = _chunk_failures(args["failures"])
    return spec_class(**args)


def grid_fault_from_dict(data: Mapping[str, Any]) -> GridFaultSpec:
    """Parse one grid-scoped fault spec mapping."""
    fault: GridFaultSpec = _parse_fault(data, "grid")
    return fault


def _fault_list(data: Mapping[str, Any], key: str) -> List[Mapping[str, Any]]:
    """The scenario's list of fault specs under ``key`` (absent = none)."""
    return json_field(data, key, list, [], of=dict, error=FaultError)


#: A retry policy object's keys and the JSON kind of each.
_RETRY_KINDS = {
    field.name: int if field.name == "max_attempts" else float
    for field in dataclasses.fields(RetryPolicy)
}


def _retry_policy(
    data: Mapping[str, Any], key: str, default: RetryPolicy
) -> RetryPolicy:
    """The scenario's ``key`` object as a :class:`RetryPolicy`."""
    where = f"bad {key}: "
    raw = json_field(
        data, key, dict, None, known=_RETRY_KINDS, where=where, error=FaultError
    )
    if raw is None:
        return default
    return RetryPolicy(**{
        name: json_field(
            raw, name, _RETRY_KINDS[name],
            None if name == "per_chunk_timeout_s" else REQUIRED, where=where,
        )
        for name in raw
    })


def schedule_from_dict(data: Mapping[str, Any]) -> FaultSchedule:
    """Build an execution-scoped :class:`FaultSchedule` from a mapping."""
    return FaultSchedule(
        faults=[_parse_fault(f, "execution") for f in _fault_list(data, "faults")],
        checkpoints=json_field(data, "checkpoints", bool, None, error=FaultError),
    )


def grid_schedule_from_dict(data: Mapping[str, Any]) -> GridFaultSchedule:
    """Build a :class:`GridFaultSchedule` from a decoded scenario mapping."""
    key = "grid_faults" if "grid_faults" in data else "faults"
    return GridFaultSchedule([grid_fault_from_dict(f) for f in _fault_list(data, key)])


def injector_from_dict(data: Mapping[str, Any]) -> FaultInjector:
    """Build a fully configured :class:`FaultInjector` from a mapping."""
    return FaultInjector(
        schedule_from_dict(data),
        policy=_retry_policy(data, "retry_policy", DEFAULT_RETRY_POLICY),
        seed=json_field(data, "seed", int, 0),
        replica_sites=json_field(
            data, "replicas", list, ["standby-replica"], of=str, error=FaultError
        ),
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
    return GridFaultScenario(
        schedule=grid_schedule_from_dict(data),
        retry=_retry_policy(data, "retry", DEFAULT_BROKER_RETRY_POLICY),
        recovery=json_field(data, "recovery", str, None, error=FaultError),
    )


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
