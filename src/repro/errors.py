"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so applications
can catch the whole family with one handler while still letting genuine
bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """An invariant of the discrete-event simulation was violated."""


class PointTimeoutError(SimulationError):
    """A sweep point exceeded its :class:`FailurePolicy` time budget."""


class ShardingError(SimulationError):
    """A cluster point cannot be executed as independent shards.

    Raised when sharded execution is requested for a point whose balancer
    is stateful (``jsq``/``power_of_two`` read live cross-node queue
    depths) or whose requests couple nodes (``fanout > 1``, hedging):
    those need every node on one simulator. Run such points single-process
    (drop ``--shards`` / use the serial or process executor), or switch to
    a stateless balancer (``random``/``round_robin``).
    """


class ConfigurationError(ReproError):
    """A model or experiment was configured with inconsistent parameters."""


class CStateError(ConfigurationError):
    """A C-state definition or transition request is invalid."""


class PowerModelError(ConfigurationError):
    """A power/PPA model was given out-of-range inputs."""


class WorkloadError(ConfigurationError):
    """A workload or load-generator parameterisation is invalid."""


def describe(exc: BaseException) -> str:
    """``Type: message`` of an exception, as failure records and run
    manifests report it."""
    return f"{type(exc).__name__}: {exc}"
