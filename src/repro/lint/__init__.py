"""repro.lint — AST-based checker for the repo's coding contracts.

The reproduction's guarantees (seeded byte-identical replay, crash-safe
resumable campaigns, fault recovery bit-identical to fault-free runs)
rest on coding contracts this package makes machine-checked:

========  =======================  ==========================================
code      name                     contract
========  =======================  ==========================================
REP001    no-wall-clock            no host-clock or environment reads outside
                                   the watchdog allowlist
REP002    seeded-rng               every RNG constructed with an explicit
                                   seed; no global or OS-entropy draws
REP003    canonical-json           json.dump(s) passes sort_keys=True
REP004    durable-writes           persistence via repro.core.durable only
REP005    repro-errors             raise ReproError subclasses, not builtins
REP006    float-equality           no ==/!= against float literals
REP007    ordered-serialization    no raw set iteration in report/serialize
REP008    ledger-discipline        ledger mutation only in GridBroker's loop
========  =======================  ==========================================

REP001 and REP002 match import-resolved names, so an alias
(``from time import time as ticks``) hides nothing.  Directory runs add
the flow layer (``repro.lint.flow``):

========  ==========================  =======================================
REP104    dimensional-consistency     prediction-core unit coherence
========  ==========================  =======================================

``--effects`` adds the interprocedural effect-and-determinism family
(``repro.lint.effects``), which also emits the ``.repro-effects.json``
determinism certificate:

========  ==============================  ===================================
REP203    unordered-iteration-to-sink     no set-iteration order reaches a
                                          serialized artifact
REP204    mutable-default-or-aliased-ret  no mutable defaults / mutate-and-
                                          return aliasing
REP205    certificate-demotion            no function analyzes below its
                                          certified tier
========  ==============================  ===================================

Run it as ``repro lint [PATHS]`` or ``python -m repro.lint``; see
DESIGN.md §13 for the full contract rationale and docs/lint-rules.md for
the rule table.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.baseline": ("Baseline", "BaselinePartition"),
        "repro.lint.context": ("ModuleContext",),
        "repro.lint.engine": (
            "PARSE_ERROR_CODE",
            "iter_python_files",
            "lint_file",
            "lint_paths",
            "lint_source",
        ),
        "repro.lint.effects": (
            "CERTIFICATE_NAME",
            "EFFECT_CODES",
            "EFFECT_RULES",
            "analyze_effects",
            "load_certificate",
            "write_certificate",
        ),
        "repro.lint.errors": ("LintError",),
        "repro.lint.findings": ("Finding", "Fix"),
        "repro.lint.fixes": ("apply_fixes",),
        "repro.lint.flow": ("FLOW_CODES", "FLOW_RULES", "analyze_paths"),
        "repro.lint.registry": (
            "RULES",
            "ProgramRule",
            "Rule",
            "all_rules",
            "register",
        ),
        "repro.lint.reporters": (
            "REPORT_FORMATS",
            "LintReport",
            "render",
            "render_github",
            "render_json",
            "render_text",
        ),
    },
)
