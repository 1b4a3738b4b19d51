"""Trace-realistic workloads: seeded generators, GWF traces, artifacts.

The trace layer generalizes Poisson job streams (``StreamSpec``, the
single-VO case of a trace spec) to the shapes real grid traces exhibit
(see DESIGN.md §16):

- :mod:`~repro.workloads.traces.distributions` — the parametric family
  (exponential, Weibull, lognormal, gamma, Pareto, uniform, constant)
  every arrival process draws from;
- :mod:`~repro.workloads.traces.spec` — per-VO submission mixes
  (:class:`VoSpec`) under day/week modulation (:class:`DiurnalSpec`),
  composed into a seeded :class:`TraceSpec`, and the Poisson
  ``StreamSpec``;
- :mod:`~repro.workloads.traces.generate` — deterministic expansion
  into broker jobs (child seeds per VO, largest-remainder counts,
  merged arrival order), and ``StreamSpec`` streams;
- :mod:`~repro.workloads.traces.artifact` — the durable, fingerprinted
  :class:`TraceWorkload` JSON artifact;
- :mod:`~repro.workloads.traces.gwf` — the Grid Workload Archive
  ``.gwf`` parser/serializer mapped onto the repro vocabulary;
- :mod:`~repro.workloads.traces.presets` — named GWA-shaped recipes
  (``poisson``, ``gwa-mixed``, ``heavy-tail``);
- :mod:`~repro.workloads.traces.grids` — the reference multi-site grid
  that ``repro broker`` runs a trace artifact or ``.gwf`` file on, shared
  with the ``broker_trace`` benchmark.

``repro trace generate|load`` make these artifacts; ``repro broker``
consumes them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.workloads.traces.artifact": (
            "TRACE_FORMAT_VERSION",
            "TraceWorkload",
        ),
        "repro.workloads.traces.distributions": (
            "DISTRIBUTION_KINDS",
            "DistributionSpec",
        ),
        "repro.workloads.traces.generate": (
            "generate_trace",
            "modulated_arrivals",
            "realize_jobs",
            "split_counts",
        ),
        "repro.workloads.traces.grids": (
            "REFERENCE_ALLOCATIONS",
            "reference_grid",
        ),
        "repro.workloads.traces.gwf": (
            "DEFAULT_GWF_MAPPING",
            "GWF_COLUMNS",
            "GwfMapping",
            "parse_gwf",
            "trace_to_gwf",
        ),
        "repro.workloads.traces.presets": ("TRACE_PRESETS", "make_preset"),
        "repro.workloads.traces.spec": ("DiurnalSpec", "TraceSpec", "VoSpec"),
    },
)
