"""Static analysis for the determinism and invariant contracts.

Every headline number this reproduction reports rests on invariants the
runtime golden-digest suite can only check *after* a simulation ran:
bit-identical ``RunResult``s across serial/process/sharded executors,
exhaustive ``ScenarioSpec -> cache_key -> store codec`` coverage, and the
``schedule_fast`` no-cancel/no-label contract. :mod:`repro.analyze` is an
AST-based pass that catches violations of those contracts at *analysis*
time — before any simulation runs — and gates CI on a committed
zero-finding baseline.

Rule series (see each rule's docstring for the full rationale):

- **DET** — determinism hazards inside the simulation packages
  (``simkit``, ``server``, ``cluster``, ``uarch``, ``governor``,
  ``workloads``): unseeded module-level RNG calls, wall-clock reads,
  unordered-collection iteration feeding arithmetic in merge paths,
  ``id()``/``hash()`` used where ordering matters.
- **FAST** — fast-path contract checks: callers of
  :meth:`~repro.simkit.engine.Simulator.schedule_fast` /
  ``schedule_at_fast`` must not cancel or label events, and hot-path
  modules must not allocate :class:`~repro.simkit.engine.Event` objects.
- **SPEC** — cross-module consistency, verified by walking dataclass
  fields against both serializers' ASTs: every ``ScenarioSpec`` field in
  the canonical ``cache_key``, every ``RunResult`` field in the store
  codec, and codec shape changes must bump ``FORMAT_VERSION``.
- **CONC** — process-boundary hazards, resolved through a project call
  graph (:mod:`repro.analyze.callgraph`): unpicklable callables and
  captures handed to pools, module globals written in worker-reachable
  code but read in the parent, RNG/``Simulator`` instances shared
  across a fork, and parent-only imports in worker-reachable code.
- **DEAD** — reachability over the same call graph's import edges:
  every module must be reached from the ``repro.__main__`` entry point
  (:mod:`repro.analyze.dead`).
- **ANA** — hygiene of the analysis itself: unparseable files and
  malformed, unknown or stale suppression comments.

Static analysis has a runtime twin: :mod:`repro.simkit.sanitizer`
(``REPRO_SANITIZE=1`` / ``--sanitize``) checks the invariants only a
running simulation exposes, and reports violations through the same
:class:`Finding` type.

Suppress a finding with an inline comment carrying a written reason::

    total += count  # repro: allow[DET005] integer counts merge exactly

Run it as ``repro lint src`` (or programmatically via
:func:`run_lint`); see :mod:`repro.analyze.engine` for the driver and
:mod:`repro.analyze.report` for output formats and the CI baseline.
"""

from repro.analyze.engine import LintResult, fix_stale_suppressions, run_lint
from repro.analyze.findings import REPORT_VERSION, Finding
from repro.analyze.rules import RULES, all_rules, rule_catalog
from repro.analyze.report import (
    compare_to_baseline,
    load_baseline,
    render_json,
    render_text,
    report_from_dict,
    report_to_dict,
)
from repro.analyze.speccheck import update_codec_manifest

__all__ = [
    "Finding",
    "LintResult",
    "REPORT_VERSION",
    "RULES",
    "all_rules",
    "compare_to_baseline",
    "fix_stale_suppressions",
    "load_baseline",
    "render_json",
    "render_text",
    "report_from_dict",
    "report_to_dict",
    "rule_catalog",
    "run_lint",
    "update_codec_manifest",
]
