"""ScenarioSpec.cache_key is derived from the dataclass fields.

Two behavioural checks replace reading the key's source: the derived key
equals the hand-written key the store's existing rows and the golden
labels were made with (:func:`legacy_cache_key`, frozen here), and
changing any one field of a spec changes its key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_specs import GOLDEN_SPECS, spec_label
from spec_strategy import axis_values, scenario_specs

from repro.errors import ConfigurationError
from repro.sweep.spec import SPEC_AXES


def legacy_cache_key(spec):
    """The hand-written key the derivation replaced, kept verbatim."""
    key = (
        spec.workload, spec.config, spec.qps, spec.cores, spec.horizon,
        spec.seed, spec.governor, spec.turbo, spec.snoops,
        spec.nodes, spec.balancer, spec.fanout, spec.hedge_ms,
    )
    if spec.sketch_error is not None:
        key = key + (spec.sketch_error,)
    if spec.telemetry_hz is not None:
        key = key + ("telemetry", spec.telemetry_hz)
    return key


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=spec_label)
def test_golden_spec_key_matches_the_legacy_key(spec):
    assert spec.cache_key == legacy_cache_key(spec)


@settings(max_examples=300, deadline=None)
@given(spec=scenario_specs())
def test_drawn_spec_key_matches_the_legacy_key(spec):
    assert spec.cache_key == legacy_cache_key(spec)


@settings(max_examples=100, deadline=None)
@given(spec=scenario_specs(), data=st.data())
def test_changing_one_field_changes_the_key(spec, data):
    for axis in SPEC_AXES:
        current = getattr(spec, axis.name)
        other = data.draw(
            axis_values(axis).filter(lambda value: value != current),
            label=axis.name,
        )
        try:
            changed = spec.with_(**{axis.name: other})
        except ConfigurationError:
            continue  # e.g. a fan-out above the node count
        if axis.name == "balancer" and spec.nodes == 1:
            # Documented canonicalisation: one node routes everything to
            # node 0 whatever the policy, so the balancer is not keyed.
            assert changed == spec
        else:
            assert changed.cache_key != spec.cache_key, axis.name
