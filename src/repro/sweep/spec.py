"""Scenario specifications: one frozen, serializable simulation point.

A :class:`ScenarioSpec` captures *everything* that determines a run's
outcome — workload, configuration, rate, core count, horizon, seed,
governor, turbo override, snoop flag and the cluster dimensions (node
count, balancer, fan-out, hedge delay) — so that two equal specs always
denote the same result. That property backs the shared memo cache
(:mod:`repro.sweep.runner`) and lets specs travel to worker processes as
plain dicts.

Each field declares its axis once: the annotation gives the type, the
field default the default, and ``field(metadata=...)`` the help text
(plus the grid default of ``workload`` and ``config``). :data:`SPEC_AXES`
derives the rest; the ``repro sweep``/``repro trace`` flags and
:meth:`ScenarioGrid.product` are generated from it.

:class:`ScenarioGrid` builds sweeps declaratively; its keywords are the
field names::

    grid = ScenarioGrid.product(
        workload=["memcached"],
        config=["baseline", "AW"],
        qps=[10e3, 100e3, 500e3],
    )
    results = SweepRunner(executor="process", jobs=4).run_grid(grid)
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import Field, asdict, dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.cluster.balancer import BALANCER_FACTORIES
from repro.errors import ConfigurationError
from repro.governor.idle import FixedGovernor, MenuGovernor, ReplayOracleGovernor
from repro.server.config import (
    CONFIGURATION_NAMES,
    ServerConfiguration,
    named_configuration,
)
from repro.server.metrics import RunResult
from repro.simkit.trace import TraceRecorder
from repro.workloads import kafka_workload, memcached_workload, mysql_workload
from repro.workloads.base import Workload

#: Default simulation horizon (seconds). Long enough for stable p99 at the
#: lowest Memcached rate (10 KQPS x 0.4 s = 4 000 requests).
DEFAULT_HORIZON = 0.4

#: Default core count: one socket of the Xeon Silver 4114.
DEFAULT_CORES = 10

#: Default seed: every experiment is reproducible bit-for-bit.
DEFAULT_SEED = 42

#: Workload factories by name. Factories return *fresh* instances so each
#: run gets independent RNG streams. Extend by adding an entry.
WORKLOAD_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "memcached": memcached_workload,
    "kafka": kafka_workload,
    "mysql": mysql_workload,
}

#: Governor factories by name. Extend by adding an entry.
#: Note: worker processes only see factories registered at import time of
#: this module (or of modules they import), not ad-hoc ``__main__`` ones.
GOVERNOR_FACTORIES: Dict[str, Callable[[], object]] = {
    "menu": MenuGovernor,
    "c1_only": lambda: FixedGovernor("C1"),
    "oracle": ReplayOracleGovernor,
}

#: Factories guaranteed to exist in *worker* processes: anything added
#: to (or overridden in) these dicts after import lives only in the
#: registering process unless workers are forked from it. The process
#: executor checks specs against these snapshots — by name *and* factory
#: identity, so overriding a built-in name is caught too — before
#: submitting when the multiprocessing start method does not inherit
#: parent memory.
IMPORT_TIME_WORKLOAD_FACTORIES = dict(WORKLOAD_FACTORIES)
IMPORT_TIME_GOVERNOR_FACTORIES = dict(GOVERNOR_FACTORIES)
IMPORT_TIME_WORKLOADS = frozenset(IMPORT_TIME_WORKLOAD_FACTORIES)
IMPORT_TIME_GOVERNORS = frozenset(IMPORT_TIME_GOVERNOR_FACTORIES)

#: Workload-seed stride between cluster nodes: node ``i`` rebuilds its
#: workload at ``factory_default_seed + i * stride`` when the factory
#: exposes an integer ``seed`` keyword, so the per-node service-time RNG
#: streams are independent. Node 0 always uses the factory default, which
#: keeps one-node clusters bit-identical to standalone runs.
WORKLOAD_NODE_SEED_STRIDE = 104_729


#: Canonical cache-key type: a flat tuple of hashable scalars.
CacheKey = Tuple[object, ...]


#: ScenarioSpec field annotation -> (description, accepted types).
_FIELD_TYPES: Dict[str, Tuple[str, Tuple[type, ...]]] = {
    "str": ("a string", (str,)),
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "bool": ("a boolean", (bool,)),
}


def _split_optional(annotation: str) -> Tuple[bool, str]:
    """``(optional, base)``: ``"Optional[float]"`` -> ``(True, "float")``."""
    if annotation.startswith("Optional["):
        return True, annotation[len("Optional["):-1]
    return False, annotation


def _check_field_type(name: str, annotation: str, value: object) -> None:
    """Reject a spec-dict value whose type does not match its field.

    Raises:
        ConfigurationError: naming the field, the expected and the given
            value.
    """
    optional, annotation = _split_optional(annotation)
    if optional and value is None:
        return
    description, types = _FIELD_TYPES[annotation]
    # bool subclasses int, so only a bool field may hold True/False.
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        expected = f"{description} or null" if optional else description
        raise ConfigurationError(
            f"ScenarioSpec field {name!r} must be {expected}, got {value!r}"
        )


def _check_positive_finite(name: str, value: float) -> None:
    """Reject a non-positive, NaN or infinite spec value.

    NaN compares false against everything and infinity is positive, so
    a bare ``value <= 0`` lets both through to a simulation that never
    ends.

    Raises:
        ConfigurationError: naming the field and the given value.
    """
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{name} must be positive and finite, got {value}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-parameterised simulation point.

    Each field's ``metadata["help"]`` documents it; the same text is the
    help of its ``repro sweep``/``repro trace`` flag.
    """

    workload: str = field(metadata={
        "help": "workload name (memcached, kafka, mysql or a registered one)",
        "grid_default": "memcached",
    })
    config: str = field(metadata={
        "help": "named server configuration (e.g. baseline, AW, NT_AW)",
        "grid_default": "baseline",
    })
    qps: float = field(metadata={
        "help": "offered aggregate request rate in queries per second",
    })
    cores: int = field(default=DEFAULT_CORES, metadata={
        "help": "core count per node",
    })
    horizon: float = field(default=DEFAULT_HORIZON, metadata={
        "help": "simulated seconds per point",
    })
    seed: int = field(default=DEFAULT_SEED, metadata={
        "help": "RNG seed; equal seeds give bit-identical results",
    })
    governor: str = field(default="menu", metadata={
        "help": "idle governor (menu, c1_only, oracle or a registered one)",
    })
    turbo: Optional[bool] = field(default=None, metadata={
        "help": "force Turbo on (--turbo) or off (--no-turbo) for every "
                "config; by default each config keeps its own setting",
    })
    snoops: bool = field(default=True, metadata={
        "help": "whether background snoop traffic is simulated "
                "(--no-snoops turns it off)",
    })
    nodes: int = field(default=1, metadata={
        "help": "cluster size: N server nodes behind a load balancer "
                "(1: the single-node path)",
    })
    balancer: str = field(default="random", metadata={
        "help": "cluster load balancer (random, round_robin, jsq, "
                "power_of_two); ignored with one node",
    })
    fanout: int = field(default=1, metadata={
        "help": "leaf sub-requests per logical request, joined at the "
                "slowest leaf; must not exceed --nodes",
    })
    hedge_ms: Optional[float] = field(default=None, metadata={
        "help": "hedged requests: duplicate leaves still outstanding after "
                "this many milliseconds onto another node (first answer "
                "wins)",
    })
    sketch_error: Optional[float] = field(default=None, metadata={
        "help": "track latency with a mergeable bounded-memory DDSketch at "
                "this relative-error guarantee in (0, 1), e.g. 0.01, "
                "instead of exact samples: the fleet-scale memory knob",
    })
    telemetry_hz: Optional[float] = field(default=None, metadata={
        "help": "sample a simulated-time telemetry timeline (power, C-state "
                "occupancy, load) at this many samples per simulated second "
                "into the result; every other metric stays bit-identical",
    })

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_FACTORIES:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOAD_FACTORIES)}"
            )
        if self.config not in CONFIGURATION_NAMES:
            raise ConfigurationError(
                f"unknown configuration {self.config!r}; "
                f"choose from {sorted(CONFIGURATION_NAMES)}"
            )
        if self.governor not in GOVERNOR_FACTORIES:
            raise ConfigurationError(
                f"unknown governor {self.governor!r}; "
                f"choose from {sorted(GOVERNOR_FACTORIES)}"
            )
        if self.balancer not in BALANCER_FACTORIES:
            raise ConfigurationError(
                f"unknown balancer {self.balancer!r}; "
                f"choose from {sorted(BALANCER_FACTORIES)}"
            )
        _check_positive_finite("qps", self.qps)
        if self.cores <= 0:
            raise ConfigurationError(f"cores must be positive, got {self.cores}")
        _check_positive_finite("horizon", self.horizon)
        if self.nodes <= 0:
            raise ConfigurationError(f"nodes must be positive, got {self.nodes}")
        if self.fanout <= 0:
            raise ConfigurationError(f"fanout must be positive, got {self.fanout}")
        if self.fanout > self.nodes:
            raise ConfigurationError(
                f"fanout {self.fanout} exceeds nodes {self.nodes}: leaves "
                "go to distinct servers"
            )
        if self.hedge_ms is not None:
            _check_positive_finite("hedge_ms", self.hedge_ms)
        if self.sketch_error is not None and not 0 < self.sketch_error < 1:
            raise ConfigurationError(
                f"sketch_error must be in (0, 1), got {self.sketch_error}"
            )
        if self.telemetry_hz is not None:
            _check_positive_finite("telemetry_hz", self.telemetry_hz)
        # Canonicalise numeric types so 100000 and 100000.0 produce the
        # same frozen spec (and therefore the same cache key).
        object.__setattr__(self, "qps", float(self.qps))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "cores", int(self.cores))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "nodes", int(self.nodes))
        object.__setattr__(self, "fanout", int(self.fanout))
        if self.hedge_ms is not None:
            object.__setattr__(self, "hedge_ms", float(self.hedge_ms))
        if self.sketch_error is not None:
            object.__setattr__(self, "sketch_error", float(self.sketch_error))
        if self.telemetry_hz is not None:
            object.__setattr__(self, "telemetry_hz", float(self.telemetry_hz))
        if self.nodes == 1:
            # With one node every policy routes everything to node 0, so
            # the balancer cannot affect results: canonicalise it (after
            # validating the given name) so single-node points share one
            # cache key instead of re-simulating per balancer name — and
            # so a parent-only registered balancer name never travels to
            # a spawn worker on a spec that will never use it.
            object.__setattr__(self, "balancer", "random")

    # -- identity ----------------------------------------------------------
    @property
    def cache_key(self) -> CacheKey:
        """Canonical, hashable identity: equal keys mean equal results.

        ``sketch_error`` joins the key only when set, so every exact-mode
        key (the universal default before the sketch backend existed)
        keeps its original shape — stored results and golden labels stay
        addressable. ``telemetry_hz`` follows the same pattern (and a
        tagged one, since both are floats): the scalars of a telemetry
        run are bit-identical to the untracked run, but the stored result
        additionally carries the timeline, so the two are distinct store
        rows.
        """
        key = (
            self.workload, self.config, self.qps, self.cores, self.horizon,
            self.seed, self.governor, self.turbo, self.snoops,
            self.nodes, self.balancer, self.fanout, self.hedge_ms,
        )
        if self.sketch_error is not None:
            key = key + (self.sketch_error,)
        if self.telemetry_hz is not None:
            key = key + ("telemetry", self.telemetry_hz)
        return key

    @property
    def is_cluster(self) -> bool:
        """Whether this point needs the cluster path.

        ``nodes=1, fanout=1`` without hedging runs the original
        single-node path, byte-for-byte — the balancer name is then
        irrelevant (every policy routes everything to node 0).
        """
        return self.nodes > 1 or self.fanout > 1 or self.hedge_ms is not None

    @property
    def uses_partitioned_arrivals(self) -> bool:
        """Whether this cluster point runs as independent per-node sims.

        True for multi-node points with single-leaf requests, no hedging
        and a stateless balancer (``random``/``round_robin``): their
        nodes never interact, so :meth:`execute` partitions the arrival
        stream exactly (Poisson/Erlang thinning) and merges per-node
        results instead of paying the shared-simulator O(nodes)
        per-arrival balancer scan — and ``--shards`` can spread the same
        node ranges over worker processes bit-identically (see
        :mod:`repro.cluster.sharding`). Stateful balancers and coupled
        requests keep the shared-simulator :class:`Cluster` path.
        """
        from repro.cluster.sharding import is_shardable

        return is_shardable(self)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Raises:
            ConfigurationError: on missing or unknown keys, or a value
                whose JSON type does not match its field.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        for f in fields(cls):
            if f.name in data:
                _check_field_type(f.name, str(f.type), data[f.name])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"incomplete ScenarioSpec dict: {exc}") from exc

    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    # -- materialisation ---------------------------------------------------
    def build_workload(self, node: int = 0) -> Workload:
        """Fresh workload instance (fresh RNG streams).

        ``node`` decorrelates cluster nodes: when the registered factory
        exposes an integer ``seed`` keyword (all built-ins do), node ``i``
        is built at ``default_seed + i * WORKLOAD_NODE_SEED_STRIDE``, so
        no two leaf servers draw identical service-time sequences — the
        correlation would otherwise cancel exactly the fan-out
        amplification a cluster exists to measure. Node 0 (and any
        zero-argument custom factory) uses the factory default.
        """
        factory = WORKLOAD_FACTORIES[self.workload]
        if node:
            try:
                seed_param = inspect.signature(factory).parameters.get("seed")
            except (TypeError, ValueError):  # builtins / C callables
                seed_param = None
            if seed_param is not None and isinstance(seed_param.default, int):
                # The zero-argument factory type is the registration
                # contract; built-ins additionally accept a seed keyword,
                # which the signature probe above just verified.
                seeded = cast(Callable[..., Workload], factory)
                return seeded(
                    seed=seed_param.default + WORKLOAD_NODE_SEED_STRIDE * node
                )
        return factory()

    def build_configuration(self) -> ServerConfiguration:
        """The named configuration, with the turbo override applied."""
        configuration = named_configuration(self.config)
        if self.turbo is not None and self.turbo != configuration.turbo_enabled:
            configuration = replace(configuration, turbo_enabled=self.turbo)
        return configuration

    def governor_factory(self) -> Callable[[], object]:
        return GOVERNOR_FACTORIES[self.governor]

    def execute(self, trace: Optional[TraceRecorder] = None) -> RunResult:
        """Run this scenario to completion (uncached; see SweepRunner).

        ``trace`` records the run (see :mod:`repro.obs.chrometrace`). It
        sends every cluster spec through the shared-simulator
        :class:`~repro.cluster.Cluster`, since the partitioned path has
        no shared recorder; results are bit-identical either way.
        """
        if self.is_cluster:
            if trace is None and self.uses_partitioned_arrivals:
                from repro.cluster.sharding import execute_partitioned

                return execute_partitioned(self)

            from repro.cluster import Cluster

            cluster = Cluster(
                workload_factory=self.build_workload,
                configuration=self.build_configuration(),
                qps=self.qps,
                nodes=self.nodes,
                cores=self.cores,
                horizon=self.horizon,
                seed=self.seed,
                balancer=self.balancer,
                fanout=self.fanout,
                hedge_s=None if self.hedge_ms is None else self.hedge_ms / 1e3,
                snoops_enabled=self.snoops,
                governor_factory=self.governor_factory(),
                sketch_error=self.sketch_error,
                trace=trace,
                telemetry_hz=self.telemetry_hz,
            )
            return cluster.run()

        from repro.server.node import ServerNode

        node = ServerNode(
            workload=self.build_workload(),
            configuration=self.build_configuration(),
            qps=self.qps,
            cores=self.cores,
            horizon=self.horizon,
            seed=self.seed,
            snoops_enabled=self.snoops,
            governor_factory=self.governor_factory(),
            trace=trace,
            sketch_error=self.sketch_error,
            telemetry_hz=self.telemetry_hz,
        )
        return node.run()


class Axis(NamedTuple):
    """One :class:`ScenarioSpec` field as a sweep axis, derived from it.

    ``value_type`` is the type of one value (``float`` for
    ``Optional[float]``). A grid takes a list of values for a ``swept``
    axis: every field that is neither ``Optional`` nor ``bool``.
    ``default`` is the field default, or the ``grid_default`` metadata of
    a required field (``dataclasses.MISSING`` for ``qps``).
    """

    name: str
    value_type: type
    optional: bool
    swept: bool
    default: Any
    help: str


def _axis(spec_field: Field[Any]) -> Axis:
    optional, base = _split_optional(str(spec_field.type))
    return Axis(
        name=spec_field.name,
        value_type=_FIELD_TYPES[base][1][-1],
        optional=optional,
        swept=not optional and base != "bool",
        default=spec_field.metadata.get("grid_default", spec_field.default),
        help=spec_field.metadata["help"],
    )


#: Every ScenarioSpec axis in field order: the source of the CLI's axis
#: flags and of :meth:`ScenarioGrid.product`.
SPEC_AXES: Tuple[Axis, ...] = tuple(_axis(f) for f in fields(ScenarioSpec))


class ScenarioGrid:
    """An ordered collection of :class:`ScenarioSpec` points.

    Deterministic order matters: runners return results positionally and
    memo caches warm in a predictable sequence.
    """

    def __init__(self, specs: Sequence[ScenarioSpec]):
        self._specs: Tuple[ScenarioSpec, ...] = tuple(specs)

    # -- builders ----------------------------------------------------------
    @classmethod
    def product(cls, **axes: Any) -> "ScenarioGrid":
        """Cartesian product over the swept axes.

        Keywords are :class:`ScenarioSpec` field names. Swept axes (see
        :data:`SPEC_AXES`) take sequences, the others one value; an
        omitted axis takes its default, so cluster axes default to the
        single-node identity (``nodes=1, fanout=1``). Points nest in
        field order (workload outermost, fanout innermost), matching how
        the paper's figures sweep rate within configuration within
        workload.

        Raises:
            ConfigurationError: on an unknown keyword, a swept axis given
                one value instead of a sequence, or an empty ``qps``.
        """
        unknown = set(axes) - {axis.name for axis in SPEC_AXES}
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioGrid.product axes {sorted(unknown)}; "
                f"known: {[axis.name for axis in SPEC_AXES]}"
            )
        if not axes.get("qps"):
            raise ConfigurationError("ScenarioGrid.product needs at least one qps")
        ranges: Dict[str, Iterable[Any]] = {}
        scalars: Dict[str, Any] = {}
        for axis in SPEC_AXES:
            if not axis.swept:
                scalars[axis.name] = axes.get(axis.name, axis.default)
                continue
            values = axes.get(axis.name, (axis.default,))
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise ConfigurationError(
                    f"ScenarioGrid.product axis {axis.name!r} takes a "
                    f"sequence of values, got {values!r}"
                )
            ranges[axis.name] = values
        return cls([
            ScenarioSpec(**dict(zip(ranges, point)), **scalars)
            for point in itertools.product(*ranges.values())
        ])

    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict[str, Any]]) -> "ScenarioGrid":
        return cls([ScenarioSpec.from_dict(d) for d in dicts])

    # -- collection protocol ----------------------------------------------
    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[ScenarioSpec, Tuple[ScenarioSpec, ...]]:
        return self._specs[index]

    def __add__(self, other: "ScenarioGrid") -> "ScenarioGrid":
        return ScenarioGrid(self._specs + tuple(other))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScenarioGrid({len(self._specs)} specs)"
