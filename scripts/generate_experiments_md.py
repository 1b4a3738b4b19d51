#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every figure reproduction on the full
grid and record paper-vs-measured, per figure.

Run:  PYTHONPATH=src python scripts/generate_experiments_md.py   (~5 s)

Deterministic: on an unchanged tree it rewrites EXPERIMENTS.md with the
same bytes, which CI checks with ``git diff --exit-code``.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.analysis import error_summary, worst_configuration
from repro.core.durable import atomic_write_text
from repro.workloads.experiments import EXPERIMENTS, run_experiment

OUT = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: What the paper's figure shows (qualitative claims to compare against).
PAPER_CLAIMS = {
    "fig02": (
        "k-means, base profile 1-1 @ 1.4 GB. No-communication model errors "
        "exceed 4% only at 4-4, 8-8, 8-16; reduction-communication under 2% "
        "except those configs; global-reduction near zero."
    ),
    "fig03": (
        "Vortex detection, base 1-1 @ 710 MB. No-communication under 2% "
        "except 2-8, 2-16, 8-8, 8-16; reduction-communication above 0.5% "
        "only at 8-8, 8-16; global-reduction extremely accurate."
    ),
    "fig04": (
        "Defect detection, base 1-1 @ 130 MB. No-communication above 4% at "
        "8-8, 8-16 (up to ~10%); reduction-communication above 1% only at "
        "4-4, 8-8, 8-16; global-reduction very accurate."
    ),
    "fig05": (
        "EM clustering, base 1-1 @ 1.4 GB. Same pattern as the other "
        "applications; no-communication up to ~6.5%."
    ),
    "fig06": (
        "kNN search, base 1-1 @ 1.4 GB. Same pattern; no-communication up "
        "to ~5.5%."
    ),
    "fig07": (
        "EM, profile 1-1 @ 350 MB predicting 1.4 GB, global-reduction "
        "model. Errors under 2%, highest where data and compute node "
        "counts are equal, dropping as compute nodes scale up."
    ),
    "fig08": (
        "Defect detection, profile 1-1 @ 130 MB predicting 1.8 GB. Shape "
        "unchanged vs same-size figure; equal-node-count configs hardest; "
        "retrieval scales linearly at 2-4 data nodes, sub-linearly at 8."
    ),
    "fig09": (
        "Defect detection, profile @ 500 Kbps predicting 250 Kbps. Errors "
        "tiny (paper peaks below 0.2%); least accurate where data and "
        "compute node counts are equal."
    ),
    "fig10": (
        "EM, same bandwidth protocol. Errors below ~0.25%; same shape "
        "notes as Figure 9."
    ),
    "fig11": (
        "EM on the Opteron cluster, base profile 8-8 @ 350 MB predicting "
        "700 MB; factors from kmeans/kNN/vortex. Errors higher than "
        "within-cluster (up to ~6-7%), particularly at 8 compute nodes; "
        "computed average factor 0.296 vs EM's observed 0.323."
    ),
    "fig12": (
        "Defect detection on the Opteron cluster, base 4-4 @ 130 MB "
        "predicting 1.8 GB; factors from kmeans/kNN/EM. Highest errors of "
        "the family (up to ~16%), worst at 4 compute nodes (the base "
        "configuration's count)."
    ),
    "fig13": (
        "Vortex detection on the Opteron cluster, base 1-1 @ 710 MB "
        "predicting 1.85 GB; factors from kmeans/kNN/EM. Largest "
        "inaccuracies at equal data/compute node counts (up to ~6%)."
    ),
}


def figure_section(result) -> str:
    lines = [f"## {result.experiment_id}: {result.title}", ""]
    claim = PAPER_CLAIMS.get(
        result.experiment_id,
        "Not evaluated in the paper — an extension workload named by its "
        "Section 2.2 run under the Figure 2-6 protocol; the same model "
        "ordering and error shapes are expected.",
    )
    lines.append(f"**Paper:** {claim}")
    lines.append("")
    meta = result.metadata
    detail = ", ".join(
        f"{key}={value}"
        for key, value in meta.items()
        if key in ("base_profile", "dataset", "profile_dataset",
                   "target_dataset", "profile_bandwidth", "target_bandwidth",
                   "representatives")
    )
    lines.append(f"**Setup:** {detail}")
    if "sc" in meta:
        per_app = ", ".join(
            f"{app}={sc:.3f}" for app, sc in sorted(meta["per_app_sc"].items())
        )
        lines.append("")
        lines.append(
            f"**Measured factors:** s_d={meta['sd']:.3f}, "
            f"s_n={meta['sn']:.3f}, s_c={meta['sc']:.3f} "
            f"(per-app s_c: {per_app})"
        )
    lines.append("")

    models = result.models
    header = "| config | " + " | ".join(models) + " |"
    sep = "|---" * (len(models) + 1) + "|"
    lines += [header, sep]
    configs = []
    for row in result.rows:
        if row.label not in configs:
            configs.append(row.label)
    errors = {(r.label, r.model): r.error for r in result.rows}
    for label in configs:
        cells = [
            f"{100.0 * errors[(label, m)]:.2f}%" if (label, m) in errors else ""
            for m in models
        ]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    lines.append("")

    summary = error_summary(result)
    measured = "; ".join(
        f"{model}: mean {100 * s['mean']:.2f}%, max {100 * s['max']:.2f}% "
        f"(worst at {worst_configuration(result, model).label})"
        for model, s in summary.items()
    )
    lines.append(f"**Measured:** {measured}")
    lines.append("")
    return "\n".join(lines)


HEADER = """\
# EXPERIMENTS — paper vs measured, per figure

Generated by `python scripts/generate_experiments_md.py` (full
14-configuration grid; deterministic).  Figure 1 of the paper is the
architecture diagram and has nothing to reproduce; Figures 2-13 are the
entire evaluation.

Reading guide: cells are relative prediction errors
`E = |T_exact − T_predicted| / T_exact` in percent — the paper's metric.
We reproduce the *shapes* (which model wins, where the hard configurations
are, roughly what magnitudes), not the absolute seconds: the substrate is
a simulator, not the authors' testbed.

Overall reproduction status:

- **Model ordering** (global reduction ≻ reduction communication ≻ no
  communication): holds in every figure, as in the paper.
- **Hard configurations**: scaled-up configurations (8-8, 8-16) dominate
  the no-communication model's error, as in the paper; equal-node-count
  configurations are the hardest for the refined models in the
  extrapolation figures, as in the paper.
- **Magnitudes**: within-cluster errors are a few percent (paper: "very
  accurate"); cross-cluster errors are the largest of each family (paper:
  up to ~16%; ours are somewhat smaller but ordered the same way, with
  defect detection worst).
- **Known deviation**: EM's model classes (see DESIGN.md §7.3) — our EM's
  sufficient statistics are constant-size, so the auto-detector assigns
  constant/linear-constant rather than the classes the paper names for EM.
  Shapes are unaffected.

"""


def main() -> int:
    t0 = time.time()
    sections = []
    ordered = [f for f in sorted(EXPERIMENTS) if f.startswith("fig")] + [
        f for f in sorted(EXPERIMENTS) if not f.startswith("fig")
    ]
    for figure_id in ordered:
        start = time.time()
        result = run_experiment(figure_id)
        sections.append(figure_section(result))
        print(f"{figure_id} done in {time.time() - start:.1f}s", flush=True)
    atomic_write_text(OUT, HEADER + "\n".join(sections))
    print(f"wrote {OUT} in {time.time() - t0:.1f}s total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
