"""The determinism certificate: ``.repro-effects.json``.

A committed, content-hashed, machine-readable record of which functions
the effect analysis proved ``pure``, ``process-pool-safe``, or
``deterministic`` (the ``effectful`` tier is absence).  It plays the
same role for parallel execution that ``lint-baseline.json`` plays for
findings — a reviewed artifact that may only *shrink* in risk:

- ``repro lint --effects --write-certificate`` refreshes it, refusing
  any *demotion* (a function whose recorded tier outranks its current
  one) unless ``--allow-demotions`` acknowledges the review.
- ``repro lint --effects`` reports demotions against the committed
  certificate as REP205 (certificate-demotion) findings, so the
  pre-commit hook (CI's gate) catches a certificate regression before
  push.
- The perf layer (``repro lint --perf``) reads the certificate's tiers:
  a hot loop may call a certified function without declaring it hot.

The document is canonical JSON through the same durable layer as every
other artifact: ``format_version``, per-module source digests, and the
``functions`` tier map.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Tuple

from repro.core.durable import (
    StoreError,
    atomic_write_json,
    read_json_document,
)
from repro.lint.effects.propagate import EffectAnalysis
from repro.lint.effects.ruledefs import TIER_EFFECTFUL, TIER_RANK
from repro.lint.errors import LintError

__all__ = [
    "CERTIFICATE_NAME",
    "CERTIFICATE_FORMAT_VERSION",
    "build_certificate",
    "load_certificate",
    "certificate_demotions",
    "write_certificate",
]

CERTIFICATE_NAME = ".repro-effects.json"
CERTIFICATE_FORMAT_VERSION = 1


def build_certificate(
    analysis: EffectAnalysis, module_digests: Dict[str, str]
) -> Dict[str, object]:
    """Certificate document for a propagated analysis.

    Only certified tiers are listed; ``effectful`` functions are simply
    absent, so the file reads as a positive claim set.
    """
    functions = {
        qualname: tier
        for qualname, tier in sorted(analysis.tiers.items())
        if TIER_RANK[tier] > TIER_RANK[TIER_EFFECTFUL]
    }
    return {
        "format_version": CERTIFICATE_FORMAT_VERSION,
        "modules": dict(sorted(module_digests.items())),
        "functions": functions,
    }


def load_certificate(
    path: str | pathlib.Path,
) -> Optional[Dict[str, object]]:
    """Load a committed certificate; ``None`` when absent.

    Unlike the summary caches, a *corrupt* certificate is an error, not
    a silent re-derive: the file is a reviewed artifact and quietly
    ignoring it would drop every demotion check it backs.
    """
    cert_path = pathlib.Path(path)
    if not cert_path.exists():
        return None
    try:
        data = read_json_document(
            cert_path,
            "determinism certificate",
            expected_version=CERTIFICATE_FORMAT_VERSION,
            remedy="regenerate with: repro lint src/repro --effects "
            "--write-certificate",
        )
    except StoreError as exc:
        raise LintError(str(exc)) from exc
    functions = data.get("functions")
    if not isinstance(functions, dict) or not all(
        isinstance(k, str) and v in TIER_RANK for k, v in functions.items()
    ):
        raise LintError(
            f"determinism certificate {cert_path} has a malformed "
            "'functions' tier map; regenerate with: repro lint "
            "src/repro --effects --write-certificate"
        )
    return data


def certificate_demotions(
    certificate: Dict[str, object], analysis: EffectAnalysis
) -> List[Tuple[str, str, str]]:
    """(qualname, certified tier, current tier) for every regression.

    A function counts as demoted when its current tier ranks below the
    committed one — including functions that disappeared entirely while
    other functions of their module survive (deletions of a whole
    module drop its claims legitimately; the digest map records which
    modules the certificate knew).
    """
    functions = certificate.get("functions")
    if not isinstance(functions, dict):
        return []
    analyzed_modules = {
        qualname: extract.module
        for extract in analysis.extracts
        for qualname in extract.functions
    }
    known_modules = set(analyzed_modules.values())
    demotions: List[Tuple[str, str, str]] = []
    for qualname, certified in sorted(functions.items()):
        current = analysis.tiers.get(qualname)
        if current is None:
            module = qualname.rsplit(".", 1)[0]
            while module and module not in known_modules:
                module = module.rsplit(".", 1)[0] if "." in module else ""
            if not module:
                continue  # whole module gone or outside the analyzed set
            current = TIER_EFFECTFUL
        if TIER_RANK[current] < TIER_RANK[str(certified)]:
            demotions.append((qualname, str(certified), current))
    return demotions


def write_certificate(
    path: str | pathlib.Path,
    analysis: EffectAnalysis,
    module_digests: Dict[str, str],
    *,
    allow_demotions: bool = False,
) -> Dict[str, object]:
    """Refresh the committed certificate, enforcing shrink-only risk.

    Promotions and new functions are always fine; demotions abort with
    the offending tier drops unless explicitly acknowledged.
    """
    cert_path = pathlib.Path(path)
    fresh = build_certificate(analysis, module_digests)
    previous = load_certificate(cert_path)
    if previous is not None and not allow_demotions:
        demoted = certificate_demotions(previous, analysis)
        if demoted:
            drops = "; ".join(
                f"{q}: {old} -> {new}" for q, old, new in demoted[:5]
            )
            raise LintError(
                f"refusing to demote {len(demoted)} certified "
                f"function(s) ({drops}); review the effect regression "
                "or pass --allow-demotions"
            )
    atomic_write_json(cert_path, fresh)
    return fresh
