"""Scenario and sweep subsystem: declarative simulation points, run fast.

The paper's evaluation is a grid of (workload x configuration x rate)
points. This package makes that grid a first-class object:

- :mod:`repro.sweep.spec` — :class:`ScenarioSpec`, a frozen, serializable
  description of one simulation point with a canonical cache key, and
  :class:`ScenarioGrid`, cartesian-product sweep builders.
- :mod:`repro.sweep.runner` — :class:`SweepRunner`, which executes specs
  through one executor object (:class:`SerialExecutor`,
  :class:`ProcessExecutor` on owned worker processes, or
  :class:`ShardedExecutor`) behind a shared memo cache and an optional
  persistent :class:`~repro.store.ResultStore`, governed by the
  executor's per-point :class:`FailurePolicy` (timeout/retries,
  raise/skip/record) and reporting through a run manifest.
- :mod:`repro.sweep.progress` — the shared tty :class:`ProgressRenderer`
  threaded through ``repro run --jobs N`` and ``repro sweep``.

Every registered experiment routes its simulation through this layer
(:meth:`repro.experiments.api.Experiment.execute`), so one default
``SweepRunner`` — e.g. the one ``python -m repro run --all --jobs 4``
installs with :func:`set_default_runner` — parallelises the whole
artifact regeneration.
"""

from repro.sweep.spec import (
    GOVERNOR_FACTORIES,
    WORKLOAD_FACTORIES,
    ScenarioGrid,
    ScenarioSpec,
)
from repro.sweep.progress import ProgressRenderer
from repro.sweep.runner import (
    FailurePolicy,
    PointFailure,
    ProcessExecutor,
    SerialExecutor,
    ShardedExecutor,
    SweepRunner,
    clear_shared_cache,
    default_runner,
    failure_record,
    result_record,
    set_default_runner,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioGrid",
    "SweepRunner",
    "SerialExecutor",
    "ShardedExecutor",
    "ProcessExecutor",
    "FailurePolicy",
    "PointFailure",
    "ProgressRenderer",
    "default_runner",
    "set_default_runner",
    "clear_shared_cache",
    "result_record",
    "failure_record",
    "WORKLOAD_FACTORIES",
    "GOVERNOR_FACTORIES",
]
