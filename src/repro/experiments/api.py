"""First-class Experiment API: declarative registry and structured output.

Every paper artifact (a figure, a table, an extension study) is an
:class:`Experiment`: it *declares* the simulation points it needs
(:meth:`Experiment.grid`) separately from how it turns results into an
artifact (:meth:`Experiment.analyze`), and renders independently of both
(:meth:`Experiment.render_text` plus the generic :func:`render_json` /
:func:`render_jsonl` / :func:`render_csv` renderers).

That split is what lets ``python -m repro run --all`` execute *one*
deduplicated batched sweep for the union of every selected experiment's
grid — Fig 10's grid is a superset of Fig 9's, Table 5's of Fig 8's — and
then analyze each experiment from the shared result map, instead of 20
serial prefetches:

    experiments = [get_experiment(i) for i in experiment_ids()]
    results = run_experiments(experiments)      # one SweepRunner.run_many
    for experiment in experiments:
        print(experiment.render_text(results[experiment.id]))

Experiments register themselves with :func:`register_experiment`::

    @register_experiment
    class MyStudy(Experiment):
        id = "my_study"
        title = "My study: what X buys"
        artifact = "extension"

        def grid(self):
            return ScenarioGrid([ScenarioSpec(...), ...])

        def analyze(self, results=None):
            result = self.point(results, spec)      # map hit or memoised run
            return self.make_result(records=[...], payload=...)

Programmatic callers use the same classes: ``Fig8Experiment(Fig8Params(
...)).execute().payload`` runs one experiment's grid and returns its
typed value, and ``.analyze().payload`` serves static experiments.
"""

from __future__ import annotations

import abc
import csv
import io
import json
import re
import types
import typing
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import (
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import ConfigurationError, SimulationError
from repro.server.metrics import RunResult
from repro.sweep.runner import SweepRunner, default_runner
from repro.sweep.spec import (
    DEFAULT_CORES,
    DEFAULT_HORIZON,
    DEFAULT_SEED,
    CacheKey,
    ScenarioGrid,
    ScenarioSpec,
)

#: Shared result map: cache key -> simulated result (one entry per unique
#: spec across every experiment in a batch).
ResultMap = Mapping[CacheKey, RunResult]

#: Output formats understood by :func:`render` (and ``repro run --format``).
FORMATS: Tuple[str, ...] = ("table", "json", "jsonl", "csv")

#: File extension per format for ``repro run --out DIR``.
_EXTENSIONS = {"table": "txt", "json": "json", "jsonl": "jsonl", "csv": "csv"}


@dataclass(frozen=True)
class NoParams:
    """Parameter set of experiments with nothing to configure."""


@dataclass(frozen=True)
class FigureSeries:
    """One named line/bar series of an experiment figure."""

    label: str
    x: Tuple[float, ...]
    y: Tuple[float, ...]


@dataclass(frozen=True)
class FigureSpec:
    """Declarative figure description rendered by :mod:`repro.obs.figures`.

    Backend-independent by design: experiments declare *what* to plot;
    the report renders it with matplotlib when installed and a pure-SVG
    fallback otherwise, so ``repro report`` works in both environments.
    """

    id: str
    title: str
    x_label: str
    y_label: str
    series: Tuple[FigureSeries, ...]
    kind: str = "line"  # "line" or "bar"
    log_y: bool = False


#: Record metrics the generic figure builder plots against qps, with
#: axis labels (latencies are milliseconds end-to-end at the server).
_GENERIC_METRICS: Tuple[Tuple[str, str], ...] = (
    ("p99_latency", "p99 latency (s)"),
    ("package_power", "package power (W)"),
)


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        # Static paper tables carry unit-suffixed strings ("4.00W",
        # "5 cycles"); plot their leading number.
        match = re.match(r"^\s*(-?\d+(?:\.\d+)?)", value)
        if match:
            return float(match.group(1))
    return None


def generic_figures(result: ExperimentResult) -> List["FigureSpec"]:
    """Default figures from an experiment's flat records.

    When records carry a numeric ``qps`` axis, plots each of
    :data:`_GENERIC_METRICS` against it (one series per ``config``
    value). Otherwise falls back to a bar chart of the first numeric
    column. Experiments with bespoke artwork override
    :meth:`Experiment.figures` instead.
    """
    records = result.records
    if not records:
        return []
    figures: List[FigureSpec] = []
    qps_values = [_numeric(r.get("qps")) for r in records]
    if sum(1 for q in qps_values if q is not None) >= 2:
        for metric, y_label in _GENERIC_METRICS:
            groups: Dict[str, List[Tuple[float, float]]] = {}
            for record, q in zip(records, qps_values):
                y = _numeric(record.get(metric))
                if q is None or y is None:
                    continue
                label = str(record.get("config", result.experiment_id))
                groups.setdefault(label, []).append((q, y))
            series = tuple(
                FigureSeries(
                    label=label,
                    x=tuple(p[0] for p in sorted(points)),
                    y=tuple(p[1] for p in sorted(points)),
                )
                for label, points in groups.items()
                if points
            )
            if series:
                figures.append(
                    FigureSpec(
                        id=f"{result.experiment_id}:{metric}",
                        title=f"{result.artifact}: {metric} vs offered load",
                        x_label="offered load (QPS)",
                        y_label=y_label,
                        series=series,
                    )
                )
    if figures:
        return figures
    # No qps axis: first numeric column as a bar chart over records.
    for key in _union_keys(records):
        values = [_numeric(r.get(key)) for r in records]
        if sum(1 for v in values if v is not None) >= 1:
            points = [
                (float(i), v) for i, v in enumerate(values) if v is not None
            ]
            return [
                FigureSpec(
                    id=f"{result.experiment_id}:{key}",
                    title=f"{result.artifact}: {key} by record",
                    x_label="record",
                    y_label=key,
                    series=(
                        FigureSeries(
                            label=key,
                            x=tuple(p[0] for p in points),
                            y=tuple(p[1] for p in points),
                        ),
                    ),
                    kind="bar",
                )
            ]
    # Nothing numeric at all (purely descriptive tables): a record-count
    # bar keeps the report's one-figure-per-experiment invariant.
    return [
        FigureSpec(
            id=f"{result.experiment_id}:records",
            title=f"{result.artifact}: records",
            x_label="",
            y_label="records",
            series=(
                FigureSeries(
                    label="records", x=(0.0,), y=(float(len(records)),)
                ),
            ),
            kind="bar",
        )
    ]


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment.

    Attributes:
        experiment_id: the registered experiment id.
        title: one-line experiment description.
        artifact: the paper artifact this regenerates (e.g. ``"Figure 8"``).
        records: flat-ish JSON-safe dicts — the machine-readable form of
            every number the artifact reports, including C-state
            residency/transition detail where a :class:`RunResult` backs
            the record.
        payload: the experiment's typed value (Fig 8's list of
            ``Fig8Point``, Table 1's rows ...); rendering helpers use it,
            machine consumers should prefer ``records``.
        notes: free-text addenda (paper bands, headline comparisons).
    """

    experiment_id: str
    title: str
    artifact: str
    records: List[Dict[str, object]]
    payload: object = None
    notes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON envelope: everything except the typed payload."""
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "artifact": self.artifact,
            "records": self.records,
            "notes": list(self.notes),
        }


class Experiment(abc.ABC):
    """One reproducible paper artifact.

    Subclasses set the class attributes ``id``, ``title`` and
    ``artifact``, optionally a ``Params`` dataclass describing their
    knobs, and implement :meth:`analyze` (and :meth:`grid` when they
    simulate). Register with :func:`register_experiment`.
    """

    #: Registered experiment id (CLI name).
    id: ClassVar[str]
    #: One-line description, shown by ``repro list``.
    title: ClassVar[str]
    #: Which paper artifact this regenerates (``"Table 3"``, ``"Figure 8"``,
    #: ``"Section 7.5"``, ``"extension"`` ...).
    artifact: ClassVar[str]
    #: Parameter dataclass; instances are held on ``self.params``.
    Params: ClassVar[type] = NoParams

    def __init__(self, params: Optional[object] = None):
        self.params = self.Params() if params is None else params
        #: Runner used when a point is missing from the shared result
        #: map; :func:`run_experiments` pins it to the batch's runner so
        #: fallbacks honour the caller's store/cache/policy choices.
        self._fallback_runner: Optional[SweepRunner] = None

    # -- declarative surface -----------------------------------------------
    def grid(self) -> ScenarioGrid:
        """Every simulation point this experiment needs, declared up front.

        Analytical/static experiments return the default empty grid.
        """
        return ScenarioGrid([])

    @abc.abstractmethod
    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        """Turn simulated results into the structured artifact.

        ``results`` maps spec cache keys to :class:`RunResult` (typically
        the shared map of a batched cross-experiment run). Points missing
        from the map are simulated on demand through the process-wide
        runner (memoised), so ``analyze()`` is also self-sufficient.
        """

    def render_text(self, result: ExperimentResult) -> str:
        """Human-readable rendering (the artifact's legacy table text)."""
        from repro.experiments.common import format_table

        if not result.records:
            return f"{result.artifact}: no records"
        headers = _union_keys(result.records)
        rows = [[_csv_cell(r.get(h, "")) for h in headers] for r in result.records]
        return format_table(headers, rows)

    def figures(self, result: ExperimentResult) -> List[FigureSpec]:
        """Declarative figures for the HTML report (``repro report``).

        The default derives generic qps-vs-metric plots from the flat
        records (see :func:`generic_figures`); experiments with bespoke
        artwork override this.
        """
        return generic_figures(result)

    # -- quick mode ---------------------------------------------------------
    def quick_params(self) -> object:
        """Reduced parameters for smoke tests; default: unchanged."""
        return self.params

    def quick(self) -> "Experiment":
        """A copy configured for a fast (seconds, not minutes) run."""
        return type(self)(params=self.quick_params())

    # -- execution helpers --------------------------------------------------
    def point(self, results: Optional[ResultMap], spec: ScenarioSpec) -> RunResult:
        """Resolve one spec: shared result map first, memoised run second.

        Raises:
            SimulationError: if the fallback run does not yield a result
                (the runner's failure policy skipped or recorded the
                point) — experiments need every point they declared.
        """
        if results is not None:
            hit = results.get(spec.cache_key)
            if hit is not None:
                return hit
        runner = self._fallback_runner
        result = (runner if runner is not None else default_runner()).run(spec)
        if not isinstance(result, RunResult):
            detail = getattr(result, "error", "skipped by the failure policy")
            raise SimulationError(
                f"experiment {self.id!r} is missing point {spec.cache_key}: "
                f"{detail}"
            )
        return result

    def execute(self, runner: Optional[SweepRunner] = None) -> ExperimentResult:
        """Run this experiment's own grid (batched) and analyze it."""
        return run_experiments([self], runner=runner)[self.id]

    def make_result(
        self,
        records: Sequence[Dict[str, object]],
        payload: object = None,
        notes: Sequence[str] = (),
    ) -> ExperimentResult:
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            artifact=self.artifact,
            records=list(records),
            payload=payload,
            notes=list(notes),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.id!r}, params={self.params!r})"


# -- registry -----------------------------------------------------------------

#: Registered experiment classes by id, in registration (= reading) order.
_REGISTRY: Dict[str, Type[Experiment]] = {}


def register_experiment(cls: Type[Experiment]) -> Type[Experiment]:
    """Class decorator: add ``cls`` to the experiment registry.

    Ids must be unique; re-registering the *same* class (e.g. a module
    reload) replaces the entry silently, while a different class claiming
    an existing id is a configuration error.
    """
    for attribute in ("id", "title", "artifact"):
        value = getattr(cls, attribute, None)
        if not isinstance(value, str) or not value:
            raise ConfigurationError(
                f"experiment class {cls.__name__} must define a non-empty "
                f"string {attribute!r}"
            )
    existing = _REGISTRY.get(cls.id)
    if existing is not None:
        # The same class may re-register (module reload, or a module
        # re-executed as __main__); a *different* class claiming a taken
        # id is an error.
        same_class = existing.__qualname__ == cls.__qualname__ and (
            existing.__module__ == cls.__module__
            or "__main__" in (existing.__module__, cls.__module__)
        )
        if not same_class:
            raise ConfigurationError(
                f"experiment id {cls.id!r} already registered by "
                f"{existing.__module__}.{existing.__qualname__}"
            )
    _REGISTRY[cls.id] = cls
    return cls


def experiment_ids() -> List[str]:
    """All registered ids, in registration (reading) order."""
    _ensure_registry_populated()
    return list(_REGISTRY)


def get_experiment_class(experiment_id: str) -> Type[Experiment]:
    _ensure_registry_populated()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"registered: {', '.join(_REGISTRY) or '(none)'}"
        ) from None


def get_experiment(
    experiment_id: str, params: Optional[object] = None
) -> Experiment:
    """A fresh instance of the registered experiment."""
    return get_experiment_class(experiment_id)(params=params)


def all_experiments() -> List[Experiment]:
    """Fresh default-parameter instances of every registered experiment."""
    return [get_experiment(experiment_id) for experiment_id in experiment_ids()]


def _ensure_registry_populated() -> None:
    """Import the experiment package so self-registration has happened.

    Users that go straight to this module (``from repro.experiments.api
    import experiment_ids``) would otherwise see an empty registry.
    """
    if not _REGISTRY:
        import repro.experiments  # noqa: F401  (imports register the classes)


# -- CLI parameter overrides ---------------------------------------------------

#: Raw strings accepted as None for Optional[...] parameter fields.
_NONE_WORDS = ("none", "null")
_TRUE_WORDS = ("true", "1", "yes", "on")
_FALSE_WORDS = ("false", "0", "no", "off")

#: Union spellings: ``Optional[T]``/``Union[...]`` resolve to
#: ``typing.Union``; PEP 604 ``T | None`` (Python >= 3.10) to
#: ``types.UnionType``.
_UNION_ORIGINS = (typing.Union,) + (
    (types.UnionType,) if hasattr(types, "UnionType") else ()
)


def _coerce_value(annotation, raw: str, key: str):
    """Parse ``raw`` into the annotated type of one Params field.

    Handles the shapes experiment ``Params`` dataclasses actually use:
    scalars (str/int/float/bool), ``Optional[T]`` and (optionally
    variadic) tuples, which parse from comma-separated items.

    Raises:
        ConfigurationError: on unparseable values or unsupported types.
    """
    origin = typing.get_origin(annotation)
    if origin in _UNION_ORIGINS:
        inner = [a for a in typing.get_args(annotation) if a is not type(None)]
        if raw.strip().lower() in _NONE_WORDS:
            return None
        return _coerce_value(inner[0], raw, key)
    if origin is tuple or annotation is tuple:
        args = typing.get_args(annotation)
        element = args[0] if args else str
        raw = raw.strip()
        if not raw:
            # An empty axis is never a useful override; downstream code
            # (grids, min() baselines) assumes at least one element.
            raise ConfigurationError(
                f"--params {key}: expected at least one comma-separated item"
            )
        return tuple(
            _coerce_value(element, part.strip(), key) for part in raw.split(",")
        )
    if annotation is bool:
        word = raw.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ConfigurationError(
            f"--params {key}: cannot parse {raw!r} as bool "
            f"(use true/false)"
        )
    if annotation in (int, float, str):
        try:
            return annotation(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"--params {key}: cannot parse {raw!r} as "
                f"{annotation.__name__}"
            ) from exc
    raise ConfigurationError(
        f"--params {key}: unsupported parameter type {annotation!r}"
    )


def parse_param_overrides(
    experiment: Experiment, assignments: Sequence[str]
) -> Experiment:
    """A copy of ``experiment`` with ``key=value`` overrides applied.

    Each assignment names a field of the experiment's ``Params``
    dataclass; values are coerced to the field's annotated type (tuples
    parse from comma-separated items, ``none`` clears Optional fields).

    Raises:
        ConfigurationError: on malformed assignments, unknown keys (the
            error lists the valid ones), or uncoercible values.
    """
    params = experiment.params
    hints = typing.get_type_hints(type(params))
    known = {f.name for f in dataclass_fields(params)}
    overrides: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"--params expects key=value, got {assignment!r}"
            )
        if key not in known:
            valid = ", ".join(sorted(known)) or "(none: this experiment has no parameters)"
            raise ConfigurationError(
                f"experiment {experiment.id!r} has no parameter {key!r}; "
                f"valid keys: {valid}"
            )
        overrides[key] = _coerce_value(hints.get(key, str), raw, key)
    if not overrides:
        return experiment
    return type(experiment)(params=replace(params, **overrides))


# -- batched cross-experiment execution ---------------------------------------

def collect_grid(experiments: Sequence[Experiment]) -> ScenarioGrid:
    """The deduplicated union of every experiment's grid.

    First occurrence wins the position, so shared points (Fig 10 ⊇ Fig 9,
    Table 5 ⊇ Fig 8) appear once, in a deterministic order.
    """
    seen = set()
    specs: List[ScenarioSpec] = []
    for experiment in experiments:
        for spec in experiment.grid():
            if spec.cache_key not in seen:
                seen.add(spec.cache_key)
                specs.append(spec)
    return ScenarioGrid(specs)


def execute_experiments(
    experiments: Sequence[Experiment], runner: Optional[SweepRunner] = None
) -> Dict[CacheKey, RunResult]:
    """Simulate the union grid in one batched ``run_many`` call.

    Returns the shared result map. Under a non-``raise`` failure policy a
    failed point is simply absent from the map; ``analyze()`` then falls
    back to an on-demand (serial) run for it.
    """
    runner = runner if runner is not None else default_runner()
    grid = collect_grid(experiments)
    specs = list(grid)
    results = runner.run_many(specs)
    return {
        spec.cache_key: result
        for spec, result in zip(specs, results)
        if isinstance(result, RunResult)
    }


def run_experiments(
    experiments: Sequence[Experiment], runner: Optional[SweepRunner] = None
) -> Dict[str, ExperimentResult]:
    """Execute and analyze a batch of experiments, sharing every point.

    The returned dict preserves the order of ``experiments``.
    """
    result_map = execute_experiments(experiments, runner=runner)
    analyzed: Dict[str, ExperimentResult] = {}
    for experiment in experiments:
        experiment._fallback_runner = runner
        try:
            analyzed[experiment.id] = experiment.analyze(result_map)
        finally:
            experiment._fallback_runner = None
    return analyzed


# -- renderers ----------------------------------------------------------------

def output_extension(fmt: str) -> str:
    """File extension for ``--out`` files of the given format."""
    _check_format(fmt)
    return _EXTENSIONS[fmt]


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ConfigurationError(
            f"unknown output format {fmt!r}; choose from {list(FORMATS)}"
        )


def render_json(result: ExperimentResult, indent: int = 2) -> str:
    """One JSON envelope: experiment metadata plus all records."""
    return json.dumps(result.to_json_dict(), indent=indent)


def render_jsonl(result: ExperimentResult) -> str:
    """One JSON object per record, each tagged with the experiment id."""
    lines = [
        json.dumps({"experiment": result.experiment_id, **record})
        for record in result.records
    ]
    return "\n".join(lines)


def _union_keys(records: Sequence[Dict[str, object]]) -> List[str]:
    keys: List[str] = []
    seen = set()
    for record in records:
        for key in record:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def _csv_cell(value: object) -> object:
    """CSV-safe cell: nested containers become compact JSON strings."""
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return value


def render_csv(result: ExperimentResult) -> str:
    """All records as CSV; the header is the union of record keys."""
    headers = _union_keys(result.records)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for record in result.records:
        writer.writerow([_csv_cell(record.get(key, "")) for key in headers])
    return buffer.getvalue().rstrip("\n")


def render(experiment: Experiment, result: ExperimentResult, fmt: str) -> str:
    """Render ``result`` in the requested format.

    ``table`` delegates to the experiment's own text rendering; the
    structured formats are generic over the records.
    """
    _check_format(fmt)
    if fmt == "table":
        return experiment.render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "jsonl":
        return render_jsonl(result)
    return render_csv(result)


# -- common parameter shapes ---------------------------------------------------

@dataclass(frozen=True)
class SweepParams:
    """Rate-sweep knobs shared by the rate-sweeping experiments.

    Subclasses set :attr:`default_rates` to their paper sweep;
    ``rates_kqps=None`` resolves to it, so the default stays in one
    place per experiment.
    """

    rates_kqps: Optional[Tuple[float, ...]] = None
    horizon: float = DEFAULT_HORIZON
    cores: int = DEFAULT_CORES
    seed: int = DEFAULT_SEED

    #: The paper sweep used when ``rates_kqps`` is None.
    default_rates: ClassVar[Tuple[float, ...]] = ()

    def resolved_rates(self) -> Tuple[float, ...]:
        if self.rates_kqps is None:
            return tuple(self.default_rates)
        return tuple(self.rates_kqps)

    @classmethod
    def quick(cls, **overrides) -> "SweepParams":
        """Reduced smoke-run shape: one light-load rate, short horizon."""
        overrides.setdefault("rates_kqps", (20.0,))
        overrides.setdefault("horizon", 0.02)
        return cls(**overrides)
