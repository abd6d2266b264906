"""Experiment harness: one registered :class:`Experiment` per artifact.

Every module defines an :class:`~repro.experiments.api.Experiment`
subclass registered with
:func:`~repro.experiments.api.register_experiment`: it declares its
simulation grid up front, analyzes results into structured records, and
renders text/JSON/JSONL/CSV independently.

Importing this package populates the registry; the import order below is
the registry's (and the CLI's) reading order.

Usage::

    python -m repro run fig8       # regenerate Fig 8 series
    python -m repro run table3     # regenerate Table 3

or, batched across experiments (shared points simulated once)::

    from repro.experiments.api import all_experiments, run_experiments
    results = run_experiments(all_experiments())
"""

from repro.experiments import api, common

# Reading order: design-point tables, analytical artifacts, then the
# simulation-driven figures and extension studies. This order defines
# `repro.experiments.api.experiment_ids()` and `repro run --all`.
from repro.experiments import (  # noqa: E402  (registration imports)
    table1,
    table2,
    table3,
    table4,
    motivation,
    latency_breakdown,
    validation,
    snoop,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table5,
    ablation,
    governor_study,
    proportionality,
    sensitivity,
    cluster,
)
