"""Hypothesis strategies for :class:`ScenarioSpec`, derived from SPEC_AXES.

Each axis draws from a strategy picked by its value type and
optionality, so a new field is drawn without editing this module; a
string axis only needs its registry listed in :data:`NAMES`, and a
numeric axis with tighter bounds than the defaults an entry in
:data:`BOUNDS`. Combinations the spec rejects (a fan-out above the node
count) are filtered out. No strategy here runs a simulation.

Import it as ``spec_strategy`` with this directory on ``sys.path``, the
way pytest puts it there for the test modules beside it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from hypothesis import strategies as st

from repro.cluster.balancer import IMPORT_TIME_BALANCER_FACTORIES
from repro.errors import ConfigurationError
from repro.server.config import CONFIGURATION_NAMES
from repro.sweep.spec import (
    IMPORT_TIME_GOVERNORS,
    IMPORT_TIME_WORKLOADS,
    SPEC_AXES,
    Axis,
    ScenarioSpec,
)

#: The valid values of each string axis: the import-time registries, so
#: a test that registers a factory of its own cannot leak it into draws.
NAMES = {
    "workload": sorted(IMPORT_TIME_WORKLOADS),
    "config": sorted(CONFIGURATION_NAMES),
    "governor": sorted(IMPORT_TIME_GOVERNORS),
    "balancer": sorted(IMPORT_TIME_BALANCER_FACTORIES),
}

#: Inclusive ``(low, high)`` of a numeric axis where the defaults below
#: do not fit; floats exclude a bound of 0 or of 1.
BOUNDS: Dict[str, Tuple[float, float]] = {
    "seed": (0, 2**32 - 1),
    "sketch_error": (0.0, 1.0),
}

#: Default bounds: a few nodes, cores and leaves; any positive rate.
INT_BOUNDS = (1, 8)
FLOAT_BOUNDS = (0.0, 1e7)


def axis_values(axis: Axis) -> st.SearchStrategy[Any]:
    """Every value a spec accepts on ``axis`` (``None`` too if optional).

    Raises:
        KeyError: for a string axis missing from :data:`NAMES`.
    """
    if axis.value_type is str:
        values: st.SearchStrategy[Any] = st.sampled_from(NAMES[axis.name])
    elif axis.value_type is bool:
        values = st.booleans()
    elif axis.value_type is int:
        low, high = BOUNDS.get(axis.name, INT_BOUNDS)
        values = st.integers(int(low), int(high))
    else:
        low, high = BOUNDS.get(axis.name, FLOAT_BOUNDS)
        values = st.floats(
            low, high, exclude_min=low == 0, exclude_max=high == 1,
            allow_nan=False, allow_infinity=False,
        )
    return st.none() | values if axis.optional else values


def _build(values: Dict[str, Any]) -> Optional[ScenarioSpec]:
    try:
        return ScenarioSpec(**values)
    except ConfigurationError:
        return None


def scenario_specs() -> st.SearchStrategy[ScenarioSpec]:
    """Valid specs: one draw per axis of :data:`SPEC_AXES`."""
    return (
        st.fixed_dictionaries({axis.name: axis_values(axis) for axis in SPEC_AXES})
        .map(_build)
        .filter(lambda spec: spec is not None)
    )
