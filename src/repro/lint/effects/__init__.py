"""Interprocedural effect-and-determinism analysis (REP201-REP205).

The third lint layer: per-function effect summaries, bottom-up fixpoint
propagation over the shared call graph, certificate tiers
(``pure`` / ``process-pool-safe`` / ``deterministic``), and the
committed ``.repro-effects.json`` determinism certificate that gates
``repro campaign --workers N``.
"""

from repro.lint.effects.api import EffectPass, analyze_effects
from repro.lint.effects.certificate import (
    CERTIFICATE_NAME,
    build_certificate,
    certificate_demotions,
    load_certificate,
    write_certificate,
)
from repro.lint.effects.propagate import (
    EffectAnalysis,
    effect_findings,
    propagate_effects,
)
from repro.lint.effects.ruledefs import (
    CERTIFIED_ROOTS,
    EFFECT_CODES,
    EFFECT_RULES,
    TIER_DETERMINISTIC,
    TIER_EFFECTFUL,
    TIER_POOL_SAFE,
    TIER_PURE,
    TIER_RANK,
)

__all__ = [
    "EffectPass",
    "analyze_effects",
    "CERTIFICATE_NAME",
    "build_certificate",
    "certificate_demotions",
    "load_certificate",
    "write_certificate",
    "EffectAnalysis",
    "effect_findings",
    "propagate_effects",
    "CERTIFIED_ROOTS",
    "EFFECT_CODES",
    "EFFECT_RULES",
    "TIER_DETERMINISTIC",
    "TIER_EFFECTFUL",
    "TIER_POOL_SAFE",
    "TIER_PURE",
    "TIER_RANK",
]
