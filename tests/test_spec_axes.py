"""Every ScenarioSpec axis reaches the built spec from each place that
builds specs out of axis values: ``repro sweep``'s flags, ``repro
trace``'s flags and :meth:`ScenarioGrid.product`.

The tables below are written out by hand, independently of the field
metadata the flags and ``product`` are generated from, so a new field
fails :func:`test_table_covers_every_field` until it is listed here and
then fails the parity tests until it reaches all three places.
"""

from dataclasses import MISSING, fields

import pytest

from repro.cli import _build_sweep_grid, _trace_spec, build_parser
from repro.errors import ConfigurationError
from repro.sweep import ScenarioGrid, ScenarioSpec

#: field -> (a valid non-default value, the flags that set it).
NON_DEFAULT = {
    "workload": ("kafka", ["--workload", "kafka"]),
    "config": ("AW", ["--config", "AW"]),
    "qps": (2_500.0, ["--qps", "2500"]),
    "cores": (4, ["--cores", "4"]),
    "horizon": (0.01, ["--horizon", "0.01"]),
    "seed": (7, ["--seed", "7"]),
    "governor": ("oracle", ["--governor", "oracle"]),
    "turbo": (False, ["--no-turbo"]),
    "snoops": (False, ["--no-snoops"]),
    "nodes": (3, ["--nodes", "3"]),
    "balancer": ("jsq", ["--balancer", "jsq"]),
    "fanout": (2, ["--fanout", "2"]),
    "hedge_ms": (0.3, ["--hedge-ms", "0.3"]),
    "sketch_error": (0.02, ["--sketch-error", "0.02"]),
    "telemetry_hz": (50.0, ["--telemetry-hz", "50"]),
}

#: The axes ScenarioGrid.product takes one value for, not a sequence.
SCALAR_AXES = {"turbo", "snoops", "hedge_ms", "sketch_error", "telemetry_hz"}

#: A balancer is canonicalised away on one node, and fan-out cannot
#: exceed the node count: both need two nodes to be set and seen.
TWO_NODES = {"balancer", "fanout"}

#: Rate of every point whose axis under test is not ``qps``.
BASE_QPS = 10_000.0


def _expected(name, horizon=None):
    """The spec that setting ``name`` (plus companions) must build."""
    value, _ = NON_DEFAULT[name]
    values = {"workload": "memcached", "config": "baseline", "qps": BASE_QPS}
    if horizon is not None:
        values["horizon"] = horizon
    if name in TWO_NODES:
        values["nodes"] = 2
    values[name] = value
    return ScenarioSpec(**values)


def _flags(name):
    _, flags = NON_DEFAULT[name]
    rate = [] if name == "qps" else ["--kqps", str(BASE_QPS / 1000)]
    nodes = ["--nodes", "2"] if name in TWO_NODES else []
    return rate + nodes + flags


def test_table_covers_every_field():
    assert set(NON_DEFAULT) == {f.name for f in fields(ScenarioSpec)}
    for f in fields(ScenarioSpec):
        if f.default is not MISSING:
            assert NON_DEFAULT[f.name][0] != f.default, f.name


@pytest.mark.parametrize("name", list(NON_DEFAULT))
def test_sweep_flags_reach_the_spec(name):
    args = build_parser().parse_args(["sweep", *_flags(name)])
    assert list(_build_sweep_grid(args)) == [_expected(name)]


@pytest.mark.parametrize("name", list(NON_DEFAULT))
def test_trace_flags_reach_the_spec(name):
    args = build_parser().parse_args(["trace", *_flags(name)])
    # trace records 50 ms unless told otherwise.
    horizon = None if name == "horizon" else 0.05
    assert _trace_spec(args) == _expected(name, horizon=horizon)


@pytest.mark.parametrize("name", list(NON_DEFAULT))
def test_product_reaches_the_spec(name):
    value, _ = NON_DEFAULT[name]
    axes = {"qps": [BASE_QPS]}
    if name in TWO_NODES:
        axes["nodes"] = [2]
    axes[name] = value if name in SCALAR_AXES else [value]
    assert list(ScenarioGrid.product(**axes)) == [_expected(name)]


def test_product_enumeration_order():
    grid = ScenarioGrid.product(
        workload=["memcached", "kafka"], config=["baseline", "AW"],
        qps=[10_000, 20_000], seed=[1, 2], nodes=[1, 2],
    )
    assert [(s.workload, s.config, s.qps, s.seed, s.nodes) for s in grid] == [
        ("memcached", "baseline", 10000.0, 1, 1),
        ("memcached", "baseline", 10000.0, 1, 2),
        ("memcached", "baseline", 10000.0, 2, 1),
        ("memcached", "baseline", 10000.0, 2, 2),
        ("memcached", "baseline", 20000.0, 1, 1),
        ("memcached", "baseline", 20000.0, 1, 2),
        ("memcached", "baseline", 20000.0, 2, 1),
        ("memcached", "baseline", 20000.0, 2, 2),
        ("memcached", "AW", 10000.0, 1, 1),
        ("memcached", "AW", 10000.0, 1, 2),
        ("memcached", "AW", 10000.0, 2, 1),
        ("memcached", "AW", 10000.0, 2, 2),
        ("memcached", "AW", 20000.0, 1, 1),
        ("memcached", "AW", 20000.0, 1, 2),
        ("memcached", "AW", 20000.0, 2, 1),
        ("memcached", "AW", 20000.0, 2, 2),
        ("kafka", "baseline", 10000.0, 1, 1),
        ("kafka", "baseline", 10000.0, 1, 2),
        ("kafka", "baseline", 10000.0, 2, 1),
        ("kafka", "baseline", 10000.0, 2, 2),
        ("kafka", "baseline", 20000.0, 1, 1),
        ("kafka", "baseline", 20000.0, 1, 2),
        ("kafka", "baseline", 20000.0, 2, 1),
        ("kafka", "baseline", 20000.0, 2, 2),
        ("kafka", "AW", 10000.0, 1, 1),
        ("kafka", "AW", 10000.0, 1, 2),
        ("kafka", "AW", 10000.0, 2, 1),
        ("kafka", "AW", 10000.0, 2, 2),
        ("kafka", "AW", 20000.0, 1, 1),
        ("kafka", "AW", 20000.0, 1, 2),
        ("kafka", "AW", 20000.0, 2, 1),
        ("kafka", "AW", 20000.0, 2, 2),
    ]


class TestProductKeywords:
    def test_unknown_keyword_is_rejected(self):
        # The plural spellings are gone: one name per axis.
        with pytest.raises(ConfigurationError, match="seeds"):
            ScenarioGrid.product(qps=[1_000], seeds=[1])

    def test_single_value_for_a_swept_axis_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'workload' takes a sequence"):
            ScenarioGrid.product(qps=[1_000], workload="kafka")

    @pytest.mark.parametrize("axes", [{}, {"qps": []}], ids=["missing", "empty"])
    def test_qps_is_required(self, axes):
        with pytest.raises(ConfigurationError, match="needs at least one qps"):
            ScenarioGrid.product(**axes)
