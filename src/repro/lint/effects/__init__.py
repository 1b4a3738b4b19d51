"""Interprocedural effect-and-determinism analysis (REP203-REP205).

The third lint layer: per-function effect summaries, bottom-up fixpoint
propagation over the shared call graph, certificate tiers
(``pure`` / ``process-pool-safe`` / ``deterministic``), and the
committed ``.repro-effects.json`` determinism certificate, whose
demotions are REP205 findings and whose tiers the perf layer reads.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.effects.api": ("EffectPass", "analyze_effects"),
        "repro.lint.effects.certificate": (
            "CERTIFICATE_NAME",
            "build_certificate",
            "certificate_demotions",
            "load_certificate",
            "write_certificate",
        ),
        "repro.lint.effects.propagate": (
            "EffectAnalysis",
            "effect_findings",
            "propagate_effects",
        ),
        "repro.lint.effects.ruledefs": (
            "EFFECT_CODES",
            "EFFECT_RULES",
            "TIER_DETERMINISTIC",
            "TIER_EFFECTFUL",
            "TIER_POOL_SAFE",
            "TIER_PURE",
            "TIER_RANK",
        ),
    },
)
