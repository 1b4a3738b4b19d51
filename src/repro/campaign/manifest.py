"""Campaign manifests: the ordered set of experiments a run executes.

A manifest is the durable identity of a campaign — the journal records
its fingerprint, and a ``--resume`` is only accepted when the manifest
still matches, so a resumed run can never silently execute a different
set of experiments against an old journal.

Entry kinds
-----------
- ``experiment``      — one registered figure reproduction
  (:data:`repro.workloads.experiments.EXPERIMENTS`).
- ``fault-scenario``  — one fault-scenario sweep
  (:func:`repro.workloads.experiments.run_fault_scenario`): a workload
  plus an inline fault-scenario mapping.

JSON format (``repro campaign MANIFEST.json``)::

    {
      "name": "nightly",
      "default_deadline_s": 120.0,
      "entries": [
        {"id": "fig02", "fast": true},
        {"id": "fig09"},
        {"id": "em-under-faults", "kind": "fault-scenario",
         "workload": "em", "fast": true, "deadline_s": 60.0,
         "scenario": {"seed": 7, "faults": [
             {"type": "chunk-read-error", "rate": 0.05}]}}
      ]
    }

Unknown keys raise :class:`~repro.errors.CampaignError` rather than
being ignored — a typo must not silently drop a deadline.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.durable import (
    REQUIRED,
    content_digest,
    json_field,
    json_value,
    legacy_digest,
    read_json_document,
)
from repro.errors import CampaignError, FaultError
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import EXPERIMENTS, ExperimentSpec

__all__ = [
    "CampaignEntry",
    "CampaignManifest",
    "manifest_from_dict",
    "manifest_to_dict",
    "load_manifest",
    "paper_suite_manifest",
]

_ENTRY_KINDS = ("experiment", "fault-scenario")


@dataclass(frozen=True)
class CampaignEntry:
    """One unit of work in a campaign.

    Attributes
    ----------
    entry_id:
        Unique id within the campaign; for ``experiment`` entries it is
        also the experiment id unless ``experiment_id`` overrides it.
    kind:
        ``"experiment"`` or ``"fault-scenario"``.
    experiment_id:
        The registered experiment to run (``experiment`` kind only).
    workload, scenario, size_label:
        The fault-scenario sweep's inputs (``fault-scenario`` kind only).
    fast:
        Run on the reduced configuration grid.
    deadline_s:
        Per-entry wall-clock deadline; ``None`` falls back to the
        manifest default (which may itself be ``None`` = no deadline).
    """

    entry_id: str
    kind: str = "experiment"
    experiment_id: Optional[str] = None
    workload: Optional[str] = None
    scenario: Optional[Dict[str, Any]] = None
    size_label: Optional[str] = None
    fast: bool = False
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.entry_id:
            raise CampaignError("campaign entry id must be non-empty")
        if self.kind not in _ENTRY_KINDS:
            raise CampaignError(
                f"unknown campaign entry kind {self.kind!r}; "
                f"expected one of {_ENTRY_KINDS}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise CampaignError(
                f"entry '{self.entry_id}': deadline_s must be positive"
            )
        if self.kind == "experiment":
            experiment_id = self.experiment_id or self.entry_id
            if experiment_id not in EXPERIMENTS:
                raise CampaignError(
                    f"entry '{self.entry_id}': unknown experiment "
                    f"'{experiment_id}'; known: {sorted(EXPERIMENTS)}"
                )
        else:
            if not self.workload:
                raise CampaignError(
                    f"entry '{self.entry_id}': fault-scenario entries "
                    "require a 'workload'"
                )
            if not isinstance(self.scenario, dict):
                raise CampaignError(
                    f"entry '{self.entry_id}': fault-scenario entries "
                    "require an inline 'scenario' mapping"
                )
            # Build the record the entry will run, so an unknown
            # workload, size label or fault type fails the manifest load
            # rather than surfacing hours into the campaign.
            try:
                self.spec()
            except (ConfigurationError, FaultError) as exc:
                raise CampaignError(f"entry '{self.entry_id}': {exc}") from exc

    @property
    def resolved_experiment_id(self) -> str:
        """The experiment id an ``experiment`` entry runs."""
        return self.experiment_id or self.entry_id

    def spec(self) -> ExperimentSpec:
        """The record this entry runs: its registered experiment, or the
        one :func:`~repro.workloads.experiments.run_fault_scenario`
        builds for a fault-scenario sweep."""
        if self.kind == "experiment":
            return EXPERIMENTS[self.resolved_experiment_id]
        return ExperimentSpec(
            self.entry_id,
            f"Fault scenario '{self.entry_id}' on {self.workload}",
            self.workload or "",
            target_size=self.size_label,
            scenario=self.scenario,
        )

    def effective_deadline_s(
        self, default: Optional[float]
    ) -> Optional[float]:
        """This entry's deadline after applying the manifest default."""
        return self.deadline_s if self.deadline_s is not None else default


@dataclass(frozen=True)
class CampaignManifest:
    """An ordered, uniquely-keyed set of campaign entries."""

    name: str
    entries: Tuple[CampaignEntry, ...]
    default_deadline_s: Optional[float] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if not self.entries:
            raise CampaignError(
                f"campaign '{self.name}' has no entries"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise CampaignError("default_deadline_s must be positive")
        seen = set()
        for entry in self.entries:
            if entry.entry_id in seen:
                raise CampaignError(
                    f"duplicate campaign entry id '{entry.entry_id}'"
                )
            seen.add(entry.entry_id)

    def fingerprint(self, legacy: bool = False) -> str:
        """Stable digest binding a journal to this exact manifest
        (``legacy``: as journal formats 1 and 2 recorded it)."""
        document = manifest_to_dict(self)
        return legacy_digest(document) if legacy else content_digest(document)

    def entry(self, entry_id: str) -> CampaignEntry:
        for candidate in self.entries:
            if candidate.entry_id == entry_id:
                return candidate
        raise CampaignError(
            f"campaign '{self.name}' has no entry '{entry_id}'"
        )


#: A manifest entry's keys: the JSON kind and default of each, as
#: :func:`~repro.core.durable.json_field` reads them.
_ENTRY_FIELDS: Dict[str, Tuple[type, Any]] = {
    "id": (str, REQUIRED),
    "kind": (str, "experiment"),
    "experiment_id": (str, None),
    "workload": (str, None),
    "scenario": (dict, None),
    "size_label": (str, None),
    "fast": (bool, False),
    "deadline_s": (float, None),
}
_MANIFEST_KEYS = ("name", "entries", "default_deadline_s", "metadata")


def _entry_from_dict(index: int, data: Mapping[str, Any]) -> CampaignEntry:
    json_value(
        f"entries[{index}]", data, dict, known=_ENTRY_FIELDS, error=CampaignError
    )
    where = f"manifest entry {data.get('id', '?')!r:.40}: "
    args = {
        key: json_field(data, key, kind, default, where=where, error=CampaignError)
        for key, (kind, default) in _ENTRY_FIELDS.items()
    }
    return CampaignEntry(entry_id=args.pop("id"), **args)


def manifest_from_dict(data: Mapping[str, Any]) -> CampaignManifest:
    """Build a manifest from a decoded JSON mapping."""
    json_value(
        "campaign manifest", data, dict, known=_MANIFEST_KEYS, error=CampaignError
    )
    where = "campaign manifest: "
    name = json_field(data, "name", str, where=where, error=CampaignError)
    entries = json_field(
        data, "entries", list, of=dict, where=where, error=CampaignError
    )
    metadata = json_field(
        data, "metadata", dict, None, where=where, error=CampaignError
    )
    return CampaignManifest(
        name=name,
        entries=tuple(_entry_from_dict(*entry) for entry in enumerate(entries)),
        default_deadline_s=json_field(
            data, "default_deadline_s", float, None, where=where
        ),
        metadata=dict(metadata or {}),
    )


def manifest_to_dict(manifest: CampaignManifest) -> Dict[str, Any]:
    """The JSON-serializable form :func:`manifest_from_dict` accepts."""
    entries: List[Dict[str, Any]] = []
    for entry in manifest.entries:
        record: Dict[str, Any] = {"id": entry.entry_id, "kind": entry.kind}
        if entry.experiment_id is not None:
            record["experiment_id"] = entry.experiment_id
        if entry.workload is not None:
            record["workload"] = entry.workload
        if entry.scenario is not None:
            record["scenario"] = entry.scenario
        if entry.size_label is not None:
            record["size_label"] = entry.size_label
        if entry.fast:
            record["fast"] = True
        if entry.deadline_s is not None:
            record["deadline_s"] = entry.deadline_s
        entries.append(record)
    data: Dict[str, Any] = {"name": manifest.name, "entries": entries}
    if manifest.default_deadline_s is not None:
        data["default_deadline_s"] = manifest.default_deadline_s
    if manifest.metadata:
        data["metadata"] = manifest.metadata
    return data


def load_manifest(path: str | pathlib.Path) -> CampaignManifest:
    """Load a campaign manifest from a JSON file."""
    data = read_json_document(
        path,
        "campaign manifest",
        remedy="fix the manifest file (see the format in "
        "repro/campaign/manifest.py)",
    )
    return manifest_from_dict(data)


def paper_suite_manifest(
    fast: bool = False,
    experiment_ids: Optional[Sequence[str]] = None,
    deadline_s: Optional[float] = None,
) -> CampaignManifest:
    """The paper's full evaluation as a campaign: what every ``repro
    suite`` run executes, journaled or not."""
    ids = list(experiment_ids) if experiment_ids else sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise CampaignError(f"unknown experiments: {unknown}")
    return CampaignManifest(
        name="paper-suite-fast" if fast else "paper-suite",
        entries=tuple(
            CampaignEntry(entry_id=i, fast=fast) for i in ids
        ),
        default_deadline_s=deadline_s,
    )
