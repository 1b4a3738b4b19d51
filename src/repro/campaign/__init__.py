"""The crash-safe campaign engine.

Long campaigns — the paper suite, figure sweeps, fault-scenario sweeps,
or user-defined manifests — survive being killed and resume where they
stopped:

- :mod:`repro.campaign.manifest` — what to run
  (:class:`CampaignManifest`, JSON manifests, the paper-suite builder).
- :mod:`repro.campaign.journal`  — the durable journal: one appended,
  fsynced line per commit, checksum corruption detection, torn-tail
  repair, manifest-fingerprint binding.
- :mod:`repro.campaign.watchdog` — per-entry wall-clock deadlines and
  graceful-interrupt supervision.
- :mod:`repro.campaign.runner`   — the pipeline: ``execute_entry``
  runs one entry's driver to a journal record (deadline,
  retry-after-timeout with :class:`~repro.faults.retry.RetryPolicy`
  semantics, claim check; no I/O) and :class:`CampaignRunner` runs the
  entries in manifest order on one kernel book and settles each record
  (journal open/resume, commit, result artifact, outcome,
  SIGINT/SIGTERM checkpointing).
- :mod:`repro.campaign.report`   — :class:`CampaignReport`:
  completed/resumed/retried/timed-out/skipped classification and the
  process exit codes.

The CLI exposes it as ``repro campaign`` and ``repro suite`` (every
run; ``--journal``/``--resume`` make the journal durable).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.campaign.journal": (
            "JOURNAL_FORMAT_VERSION",
            "CampaignJournal",
            "JournalRecord",
        ),
        "repro.campaign.manifest": (
            "CampaignEntry",
            "CampaignManifest",
            "load_manifest",
            "manifest_from_dict",
            "manifest_to_dict",
            "paper_suite_manifest",
        ),
        "repro.campaign.report": (
            "ENTRY_STATUSES",
            "EXIT_INTERRUPTED",
            "EXIT_OK",
            "EXIT_PROBLEMS",
            "CampaignOutcome",
            "CampaignReport",
        ),
        "repro.campaign.runner": ("CampaignRunner",),
        "repro.campaign.watchdog": (
            "CampaignInterruptedError",
            "DeadlineExceededError",
            "run_with_deadline",
        ),
    },
)
