"""Command-line interface: regenerate paper artifacts by name.

Usage::

    python -m repro list                 # available experiments
    python -m repro run table3           # one experiment to stdout
    python -m repro run fig8 fig10       # several
    python -m repro run --all            # everything, one batched sweep
    python -m repro run --all --jobs 4   # everything, 4 worker processes
    python -m repro run --all --format jsonl --out results   # structured
    python -m repro run --all --quick    # reduced grids (CI smoke)
    python -m repro run fanout_tail --quick             # tail-at-scale figure
    python -m repro run fanout_tail --params nodes=16 fanouts=1,4,16
    python -m repro sweep --config baseline AW --kqps 10 100 500 --jobs 4
    python -m repro sweep --nodes 8 --fanout 4 --kqps 320 --jobs 4  # cluster
    python -m repro sweep --grid grid.jsonl --on-error skip -o out.jsonl
    python -m repro sweep --kqps 100 --telemetry-hz 50 --manifest runs.jsonl
    python -m repro trace --kqps 100 -o trace.json      # Perfetto trace
    python -m repro trace --nodes 4 --fanout 4 --hedge-ms 0.4 -o trace.json
    python -m repro trace --kqps 100 --nodes 8 --sketch-error 0.01
    python -m repro report --all --quick -o report.html # one-page HTML
    python -m repro report fig8 table3 --telemetry-hz 20 -o report.html
    python -m repro cache stats          # result-store hygiene
    python -m repro cache prune --max-bytes 100000000   # LRU size cap
    python -m repro lint src             # determinism/invariant analysis
    python -m repro lint --rules         # print the rule catalog
    python -m repro lint src --format json              # machine-readable

Experiments come from the declarative registry
(:mod:`repro.experiments.api`): ``run`` collects the union of every
selected experiment's scenario grid, executes it as *one* deduplicated
batched sweep (shared points — Fig 10 ⊇ Fig 9, Table 5 ⊇ Fig 8 — are
simulated once process-wide), then analyzes and renders each experiment
from the shared result map. ``--format`` selects table (default), json,
jsonl or csv output; ``--out DIR`` writes one file per experiment.

The axis flags of ``sweep`` (lists) and ``trace`` (one value each) are
generated from the :class:`~repro.sweep.spec.ScenarioSpec` fields.
``sweep --grid FILE`` replaces them all: giving any with it is an error.

Simulated points persist in an on-disk result store (``--cache-dir``,
``$REPRO_CACHE_DIR``, default ``~/.cache/repro``), so repeated
invocations only simulate what the store has not seen for the current
code version. ``--no-cache`` disables it; ``repro cache`` inspects,
prunes or clears it.

Exit codes: 0 on success, 1 on simulation/configuration errors (including
sweeps that completed with skipped/recorded point failures), 2 on usage
errors (unknown experiment, empty selection, bad sweep axis or grid file,
non-positive ``--jobs`` or ``--capacity``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.experiments.api import (
    FORMATS,
    Experiment,
    experiment_ids,
    get_experiment,
    output_extension,
    parse_param_overrides,
    render,
    run_experiments,
)
from repro.experiments.common import format_table, number
from repro.store import ResultStore
from repro.sweep import (
    FailurePolicy,
    ProcessExecutor,
    ProgressRenderer,
    ScenarioGrid,
    SerialExecutor,
    ShardedExecutor,
    SweepRunner,
    default_runner,
    failure_record,
    result_record,
    set_default_runner,
)
from repro.sweep.runner import EMIT_LEVELS
from repro.sweep.spec import DEFAULT_HORIZON, SPEC_AXES, ScenarioSpec
from repro.units import seconds_to_us

#: Exit codes (sysexits-style: 2 matches argparse's own usage errors).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

#: Experiment ids in registry (reading) order. Kept as a module-level
#: list for backwards compatibility; the registry is the source of truth.
EXPERIMENT_IDS: List[str] = experiment_ids()


def _configured_runner(
    jobs: Optional[int] = None,
    no_cache: bool = False,
    cache_dir: Optional[str] = None,
    policy: Optional[FailurePolicy] = None,
    progress: Optional[str] = None,
    shards: Optional[int] = None,
    manifest: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> "contextlib.AbstractContextManager[SweepRunner]":
    """Check the execution flags, open the result store, return the scope.

    The scope points the process-wide runner at this command's
    configuration (``progress``: a meter label; ``manifest``: a path;
    ``queue_dir``: the ``--distributed`` queue, with the store as result
    channel) and restores the previous runner on exit, so CLI flags never
    leak into later programmatic use of :func:`repro.sweep.default_runner`.

    Raises:
        ConfigurationError: on ``--jobs`` below 1 (below 0 with
            ``--distributed``, where 0 leaves the points to external
            workers), or ``--distributed`` without a writable store.
    """
    import sqlite3

    floor = 0 if queue_dir is not None else 1
    if jobs is not None and jobs < floor:
        raise ConfigurationError(f"--jobs must be at least {floor}, got {jobs}")
    if shards is not None:
        # --shards splits each cluster point into node-range jobs (exact
        # merge) on the same workers that run the other points.
        executor = ShardedExecutor(shards, jobs=jobs, policy=policy)
    elif jobs is not None and jobs > 1:
        executor = ProcessExecutor(jobs, policy)
    else:
        executor = SerialExecutor(policy)
    store = None
    if not no_cache:
        try:
            store = ResultStore(cache_dir)
        except (OSError, sqlite3.Error) as exc:
            # Unwritable directory, corrupt database, incompatible sqlite:
            # run uncached rather than refusing to run at all.
            print(f"warning: result store disabled ({exc})", file=sys.stderr)
    distributed = None
    if queue_dir is not None:
        if store is None:
            raise ConfigurationError(
                "--distributed requires a writable result store: workers "
                "return results through it (do not pass --no-cache)"
            )
        from repro.distrib import DistributedExecutor

        executor = distributed = DistributedExecutor(
            queue_dir,
            store_dir=str(store.root),
            jobs=jobs if jobs is not None else 3,
            policy=policy,
        )

    @contextlib.contextmanager
    def scope() -> Iterator[SweepRunner]:
        with contextlib.ExitStack() as stack:
            for owner in (store, distributed):
                if owner is not None:
                    stack.callback(owner.close)
            run_manifest = None
            if manifest:
                from repro.obs import RunManifest

                run_manifest = stack.enter_context(RunManifest(manifest))
            meter = None
            if progress:
                meter = ProgressRenderer(label=progress)
                stack.callback(meter.close)
            stack.callback(set_default_runner, default_runner())
            yield set_default_runner(SweepRunner(
                executor=executor, progress=meter, store=store,
                manifest=run_manifest,
            ))

    return scope()


def _select_experiments(
    ids: List[str], run_all: bool, quick: bool
) -> List[Experiment]:
    """The named experiments (every one with ``run_all``), ``--quick``-reduced.

    Raises:
        ConfigurationError: naming the unknown ids.
    """
    known = experiment_ids()
    targets = known if run_all else ids
    unknown = [i for i in targets if i not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            "run `python -m repro list`"
        )
    experiments = [get_experiment(experiment_id) for experiment_id in targets]
    return [experiment.quick() for experiment in experiments] if quick else experiments


def cmd_list() -> int:
    """Print the experiment ids with their one-line descriptions."""
    for experiment_id in experiment_ids():
        experiment = get_experiment(experiment_id)
        print(f"  {experiment_id:<18} {experiment.title}")
    return EXIT_OK


def cmd_run(
    ids: List[str],
    run_all: bool,
    output_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    no_cache: bool = False,
    cache_dir: Optional[str] = None,
    fmt: str = "table",
    quick: bool = False,
    params: Optional[List[str]] = None,
    distributed: Optional[str] = None,
) -> int:
    """Run experiments through one batched sweep; print or write files."""
    if not (run_all or ids):
        print("nothing to run: name experiments or pass --all", file=sys.stderr)
        return EXIT_USAGE
    try:
        experiments = _select_experiments(ids, run_all, quick)
        if params:
            if len(experiments) != 1:
                # key=value overrides target ONE Params dataclass; applying
                # the same keys across experiments would fail (or worse,
                # silently mean different things).
                raise ConfigurationError(
                    "--params overrides the parameters of exactly one "
                    f"experiment; got {len(experiments)} selected"
                )
            # Overrides layer on top of --quick, so `--quick --params
            # nodes=2` keeps the reduced grid with one knob changed.
            experiments = [parse_param_overrides(experiments[0], params)]
        runner_scope = _configured_runner(
            jobs, no_cache, cache_dir,
            progress="run" if jobs is not None and jobs > 1 else None,
            queue_dir=distributed,
        )
    except ReproError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with runner_scope as runner:
        # One deduplicated batched sweep for the union of all grids:
        # shared points (Fig 10 ⊇ Fig 9, Table 5 ⊇ Fig 8) simulate once.
        try:
            results = run_experiments(experiments, runner=runner)
        except ReproError as exc:
            # e.g. a --params override that is type-valid but
            # domain-invalid only once the grid's specs are built.
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_ERROR

    json_envelopes = []
    for experiment in experiments:
        result = results[experiment.id]
        if output_dir:
            os.makedirs(output_dir, exist_ok=True)
            path = os.path.join(
                output_dir, f"{experiment.id}.{output_extension(fmt)}"
            )
            with open(path, "w") as handle:
                handle.write(render(experiment, result, fmt) + "\n")
            print(f"wrote {path}")
        elif fmt == "table":
            print(f"\n{'=' * 72}\n{experiment.id}\n{'=' * 72}")
            print(render(experiment, result, fmt))
        elif fmt == "json":
            # Collected into one parseable JSON array below.
            json_envelopes.append(result.to_json_dict())
        else:
            print(render(experiment, result, fmt))
    if json_envelopes:
        print(json.dumps(json_envelopes, indent=2))
    return EXIT_OK


def _load_grid_file(path: str) -> ScenarioGrid:
    """Parse a grid file: a JSON array of spec dicts, or JSONL (one per line).

    Raises:
        ReproError: on unreadable/empty/malformed files or invalid specs.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read grid file {path}: {exc}") from exc
    if not text.strip():
        raise ConfigurationError(f"grid file {path} is empty")
    try:
        if text.lstrip().startswith("["):
            dicts = json.loads(text)
        else:
            dicts, offset = [], 0
            for line in text.splitlines(keepends=True):
                if line.strip():
                    try:
                        dicts.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        # Report the position in the file, not in the line.
                        raise json.JSONDecodeError(
                            exc.msg, text, offset + exc.pos
                        ) from None
                offset += len(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"grid file {path} is not valid JSON/JSONL: {exc}") from exc
    if not isinstance(dicts, list) or not all(isinstance(d, dict) for d in dicts):
        raise ConfigurationError(
            f"grid file {path} must hold a list of ScenarioSpec dicts"
        )
    if not dicts:
        raise ConfigurationError(f"grid file {path} holds no points")
    return ScenarioGrid.from_dicts(dicts)


class _AxisFlag(argparse.Action):
    """Store an axis flag's value and note the flag in ``given_axis_flags``.

    ``--grid`` rejects every given axis flag, even one that repeats its
    default, which comparing values to defaults cannot see.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given_axis_flags += (option_string,)


def _add_axis_flags(command: argparse.ArgumentParser, swept: bool) -> None:
    """Add one flag per ScenarioSpec axis (see :data:`SPEC_AXES`).

    The flag is ``--`` plus the field name with ``-`` for ``_``, typed,
    defaulted and documented by the field; with ``swept`` (``sweep``) a
    swept axis takes a list. An ``Optional[bool]`` axis becomes an
    exclusive ``--X``/``--no-X`` pair and a bool that defaults to True a
    ``--no-X`` switch, parsed to booleans ``args.X``/``args.no_X``. The
    rate is ``--qps`` or ``--kqps``: lists on ``sweep``, one on ``trace``.
    """
    command.set_defaults(given_axis_flags=())
    for axis in SPEC_AXES:
        flag = "--" + axis.name.replace("_", "-")
        nargs = "+" if swept and axis.swept else None
        if axis.name == "qps":
            rate = command if swept else command.add_mutually_exclusive_group()
            rate.add_argument(
                "--qps", action=_AxisFlag, nargs=nargs, type=float, help=axis.help
            )
            rate.add_argument(
                "--kqps", action=_AxisFlag, nargs=nargs, type=float,
                help="the rate in thousands of queries per second",
            )
        elif axis.value_type is bool:
            negated = "--no-" + flag[2:]
            spellings = (
                [flag, negated] if axis.optional
                else [negated if axis.default else flag]
            )
            pair = command.add_mutually_exclusive_group()
            for spelling in spellings:
                pair.add_argument(
                    spelling, action=_AxisFlag, nargs=0, const=True, default=False,
                    help=axis.help if spelling == spellings[0] else None,
                )
        else:
            command.add_argument(
                flag, action=_AxisFlag, nargs=nargs, type=axis.value_type,
                default=[axis.default] if nargs else axis.default,
                help=axis.help if axis.default is None
                else axis.help + " (default: %(default)s)",
            )


def _axis_values(args: argparse.Namespace) -> Dict[str, Any]:
    """ScenarioSpec keywords from the axis flags in ``args``, but ``qps``."""
    values: Dict[str, Any] = {}
    for axis in SPEC_AXES:
        if axis.name == "qps":
            continue
        if axis.value_type is not bool:
            values[axis.name] = getattr(args, axis.name)
            continue
        on = getattr(args, axis.name, False)
        off = getattr(args, "no_" + axis.name, False)
        values[axis.name] = True if on else False if off else axis.default
    return values


def _build_sweep_grid(args: argparse.Namespace) -> ScenarioGrid:
    """The swept grid: from ``--grid FILE`` or the axis flags.

    Raises:
        ReproError: on invalid axes, grid files, or conflicting inputs.
    """
    if args.grid:
        # A grid file defines every axis itself; silently ignoring axis
        # flags would let `--grid f --governor oracle` lie to the user.
        if args.given_axis_flags:
            raise ConfigurationError(
                "pass either --grid or axis flags, not both "
                f"(got {', '.join(dict.fromkeys(args.given_axis_flags))})"
            )
        return _load_grid_file(args.grid)
    qps = list(args.qps or []) + [k * 1000.0 for k in args.kqps or []]
    if not qps:
        raise ConfigurationError("sweep needs at least one rate: pass --qps or --kqps")
    return ScenarioGrid.product(qps=qps, **_axis_values(args))


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a declarative scenario grid and emit per-point results."""
    try:
        if args.distributed is not None and args.shards is not None:
            raise ConfigurationError("--distributed cannot be combined with --shards")
        if args.timeout is not None:
            # Accepting the flag but never enforcing it would be worse
            # than rejecting it: only a worker process can be stopped,
            # and the serial executor runs points in this process.
            if args.distributed is not None:
                raise ConfigurationError(
                    "--distributed does not take --timeout: runaway "
                    "points are bounded by lease expiry instead"
                )
            if args.shards is None and (args.jobs is None or args.jobs <= 1):
                raise ConfigurationError("--timeout requires --jobs N (N > 1) or --shards")
        grid = _build_sweep_grid(args)
        policy = FailurePolicy(
            mode=args.on_error, timeout=args.timeout, retries=args.retries
        )
        runner_scope = _configured_runner(
            args.jobs, args.no_cache, args.cache_dir, policy=policy,
            progress="sweep" if args.progress else None, shards=args.shards,
            manifest=args.manifest, queue_dir=args.distributed,
        )
    except ReproError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    with runner_scope as runner:
        try:
            results = runner.run_many(grid)
        except ReproError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return EXIT_ERROR
        failures = dict(runner.last_failures)
    if args.manifest:
        print(f"sweep: run manifest appended to {args.manifest}", file=sys.stderr)

    # skip: failed points are omitted from the table/JSONL (clean output);
    # record: they appear inline as error records. Either way every
    # failure is reported on stderr, so it is never silent.
    records = []
    n_failed = 0
    for spec, result in zip(grid, results):
        failure = failures.get(spec.cache_key)
        if result is None or failure is not None:
            n_failed += 1
            print(
                f"sweep: point failed: {spec.workload}/{spec.config} "
                f"@ {spec.qps:.0f} QPS seed {spec.seed}: "
                f"{failure.error if failure else 'unknown error'}",
                file=sys.stderr,
            )
            if policy.mode == "record":
                records.append(failure_record(spec, failure))
        else:
            records.append(result_record(spec, result, emit=args.emit))
    if n_failed:
        print(
            f"sweep: {n_failed} of {len(grid)} point(s) failed "
            f"(policy: {policy.mode})",
            file=sys.stderr,
        )

    if args.output:
        with open(args.output, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        print(f"wrote {len(records)} points to {args.output}")
        return EXIT_ERROR if n_failed else EXIT_OK

    rows = []
    for record in records:
        prefix = [
            record["workload"],
            record["config"],
            f"{record['qps'] / 1000:.0f}K",
            record["seed"],
        ]
        if "error" in record:
            rows.append(prefix + ["-", "-", "-", "-", f"FAILED: {record['error']}"])
        else:
            rows.append(
                prefix
                + [
                    f"{record['avg_core_power']:.2f}W",
                    f"{record['package_power']:.1f}W",
                    _latency_cell(record["avg_latency"]),
                    _latency_cell(record["p99_latency"]),
                    record["completed"],
                ]
            )
    print(
        format_table(
            ["workload", "config", "QPS", "seed", "core P", "pkg P",
             "avg lat", "p99 lat", "completed"],
            rows,
        )
    )
    return EXIT_ERROR if n_failed else EXIT_OK


#: A sweep-table latency in microseconds; ``-`` when none was measured.
_latency_cell = number(".1f", seconds_to_us, "us")


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a distributed sweep as one lease-claiming worker process."""
    from repro.distrib.worker import default_worker_id, worker_main

    try:
        if args.lease <= 0:
            raise ConfigurationError(f"--lease must be positive, got {args.lease}")
        if args.retries < 0:
            raise ConfigurationError(
                f"--retries must be >= 0, got {args.retries}"
            )
        if args.max_points is not None and args.max_points <= 0:
            raise ConfigurationError(
                f"--max-points must be positive, got {args.max_points}"
            )
    except ReproError as exc:
        print(f"invalid worker: {exc}", file=sys.stderr)
        return EXIT_USAGE
    log = (lambda message: print(message, file=sys.stderr)) if args.verbose else None
    return worker_main(
        queue_dir=args.queue,
        store_dir=args.store,
        worker_id=args.id or default_worker_id(),
        lease_s=args.lease,
        retries=args.retries,
        drain=not args.no_drain,
        max_points=args.max_points,
        log=log,
    )


def _trace_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Build the single ScenarioSpec a ``repro trace`` run records."""
    if (args.qps is None) == (args.kqps is None):
        raise ConfigurationError("trace needs exactly one rate: --qps or --kqps")
    qps = args.qps if args.qps is not None else args.kqps * 1000.0
    return ScenarioSpec(qps=qps, **_axis_values(args))


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one scenario into a Chrome trace-event JSON for Perfetto."""
    from repro.obs.chrometrace import export_chrome_trace

    try:
        if args.capacity is not None and args.capacity <= 0:
            raise ConfigurationError(
                f"--capacity must be positive, got {args.capacity}"
            )
        spec = _trace_spec(args)
    except ReproError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        meta = export_chrome_trace(spec, args.output, capacity=args.capacity)
    except ReproError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    dropped = meta.get("dropped_events", 0)
    note = f" ({dropped} dropped; raise --capacity)" if dropped else ""
    print(
        f"wrote {meta['recorded_events']} trace events to {args.output}{note}\n"
        "open in https://ui.perfetto.dev or chrome://tracing"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """Build the one-page self-contained HTML repro report."""
    from repro.obs.report import build_report

    if not (args.all or args.ids) and args.manifest is None:
        print(
            "nothing to report: name experiments, pass --all, or pass "
            "--manifest for a manifest-only report",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        experiments = _select_experiments(args.ids, args.all, args.quick)
        runner_scope = _configured_runner(
            args.jobs, args.no_cache, args.cache_dir,
            progress="report" if args.jobs is not None and args.jobs > 1 else None,
        )
    except ReproError as exc:
        print(f"invalid report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    timeline = None
    timeline_label = ""
    with runner_scope as runner:
        try:
            results = run_experiments(experiments, runner=runner)
            if args.telemetry_hz is not None:
                spec = ScenarioSpec(
                    workload="memcached", config="baseline", qps=100_000.0,
                    horizon=0.05 if args.quick else DEFAULT_HORIZON,
                    telemetry_hz=args.telemetry_hz,
                )
                timeline = runner.run(spec).timeline
                timeline_label = (
                    f"{spec.workload}/{spec.config} @ {spec.qps:.0f} QPS, "
                    f"horizon {spec.horizon}s"
                )
        except ReproError as exc:
            print(f"report failed: {exc}", file=sys.stderr)
            return EXIT_ERROR
    page = build_report(
        experiments, results,
        timeline=timeline, timeline_label=timeline_label,
        manifest_path=args.manifest,
        subtitle=f"{len(experiments)} experiment(s)"
        + (", quick grids" if args.quick else ""),
    )
    with open(args.output, "w") as handle:
        handle.write(page)
    print(f"wrote {args.output} ({len(page) / 1024:.0f} KiB, self-contained)")
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    """Result-store hygiene: stats, prune stale salts, clear everything."""
    import sqlite3

    if args.max_bytes is not None and args.action != "prune":
        # Accepting the flag on stats/clear and silently ignoring it
        # would be worse than rejecting it.
        print(
            f"--max-bytes only applies to `cache prune`, not `cache {args.action}`",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        store = ResultStore(args.cache_dir)
    except (OSError, sqlite3.Error) as exc:
        print(f"cannot open result store: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.action == "stats":
            print(f"store:           {store.path}")
            print(f"code salt:       {store.salt}")
            print(f"current records: {len(store)}")
            print(f"stale records:   {store.stale_records()} (other code versions)")
            print(f"total records:   {store.total_records()}")
            print(f"size on disk:    {store.size_bytes()} bytes")
        elif args.action == "prune":
            removed = store.prune_stale()
            print(f"pruned {removed} stale record(s) from {store.path}")
            if args.max_bytes is not None:
                try:
                    evicted = store.prune_lru(args.max_bytes)
                except ReproError as exc:
                    print(f"invalid --max-bytes: {exc}", file=sys.stderr)
                    return EXIT_USAGE
                print(
                    f"evicted {evicted} least-recently-used record(s) "
                    f"to fit {args.max_bytes} bytes "
                    f"(database now {store.db_bytes()} bytes)"
                )
        else:  # clear
            total = store.total_records()
            store.clear()
            print(f"cleared {total} record(s) from {store.path}")
    except sqlite3.Error as exc:
        print(f"result store error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        store.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate AgileWatts (MICRO 2022) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments").set_defaults(
        handler=lambda args: cmd_list()
    )

    def add_cache_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--cache-dir", metavar="DIR",
            help="result store location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )

    def add_selection_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("ids", nargs="*", help="experiment ids (see `list`)")
        command.add_argument("--all", action="store_true", help="every experiment")
        command.add_argument(
            "--quick", action="store_true",
            help="reduced grids (one light rate, short horizon) for smoke runs",
        )

    def add_runner_flags(
        command: argparse.ArgumentParser, distributed: bool = True
    ) -> None:
        command.add_argument(
            "-j", "--jobs", type=int, metavar="N",
            help="simulate points over N worker processes",
        )
        command.add_argument(
            "--no-cache", action="store_true",
            help="do not read or write the persistent result store",
        )
        add_cache_dir(command)
        if not distributed:
            return
        command.add_argument(
            "--sanitize", action="store_true",
            help="run with the runtime sim-sanitizer (SAN rules): checked "
                 "engine loop plus periodic deep audits; results stay "
                 "bit-identical, simulation runs a constant factor slower; "
                 "worker processes inherit it via REPRO_SANITIZE",
        )
        command.add_argument(
            "--distributed", metavar="QUEUE_DIR", default=None,
            help="fan points out to lease-claiming worker processes over "
                 "this queue directory (-j sets the local worker count, "
                 "default 3; -j 0 starts none and leaves the points to "
                 "external `repro worker --queue QUEUE_DIR` processes, which "
                 "may join in any case); rerunning with the same directory "
                 "resumes a crashed run, skipping store-hit points",
        )

    run = sub.add_parser("run", help="run experiments (one batched sweep)")
    add_selection_flags(run)
    run.add_argument(
        "-f", "--format", choices=list(FORMATS), default="table", dest="format",
        help="output format: human tables (default) or structured records",
    )
    run.add_argument(
        "-o", "--out", "--output-dir", dest="output_dir", metavar="DIR",
        help="write one file per experiment (.txt/.json/.jsonl/.csv by format)",
    )
    run.add_argument(
        "--params", nargs="+", metavar="KEY=VALUE", default=None,
        help="override fields of the selected experiment's Params dataclass "
             "(typed by the field annotation; tuples parse from "
             "comma-separated items, e.g. fanouts=1,2,4); requires exactly "
             "one experiment",
    )
    add_runner_flags(run)
    run.set_defaults(handler=lambda args: cmd_run(
        args.ids, args.all, args.output_dir, args.jobs,
        no_cache=args.no_cache, cache_dir=args.cache_dir, fmt=args.format,
        quick=args.quick, params=args.params, distributed=args.distributed,
    ))

    sweep = sub.add_parser(
        "sweep", help="run a scenario grid (workload x config x rate x governor)"
    )
    sweep.add_argument(
        "--grid", metavar="FILE",
        help="read the grid from a JSON/JSONL file of ScenarioSpec dicts "
             "(instead of the axis flags)",
    )
    _add_axis_flags(sweep, swept=True)
    sweep.add_argument(
        "--manifest", metavar="FILE",
        help="append a run manifest (one JSON line per lifecycle event: "
             "claimed/finished/retry/timeout/failed/memo_hit/store_hit) "
             "to FILE while the sweep runs",
    )
    sweep.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="split each cluster point into S node-range shards run as "
             "worker jobs and merged exactly (bit-identical to the serial "
             "result); requires stateless balancing (random/round_robin), "
             "fanout 1 and no hedging; -j sets the worker count (default S)",
    )
    sweep.add_argument(
        "--emit", choices=list(EMIT_LEVELS), default="headline",
        help="per-point record detail: headline metrics only (default), "
             "residency (adds C-state residency and transition-rate "
             "dicts), or perf (adds engine counters — events processed, "
             "heap high-water mark, events per request — for normalising "
             "wall time per unit of simulation work)",
    )
    sweep.add_argument(
        "--on-error", choices=["raise", "skip", "record"], default="raise",
        help="per-point failure mode: abort the sweep (raise), omit the "
             "point from the output (skip), or keep an inline error record "
             "in the output (record); skipped/recorded failures are always "
             "reported on stderr",
    )
    sweep.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-point (per-shard with --shards) wall-clock budget; an "
             "overrunning worker is terminated (requires --jobs N > 1 or "
             "--shards: only a worker process can be stopped)",
    )
    sweep.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="resubmit a failed point up to N times before applying --on-error",
    )
    sweep.add_argument(
        "--progress", action="store_true", help="render per-point progress on stderr"
    )
    sweep.add_argument(
        "-o", "--output", metavar="FILE",
        help="write one JSON record per point (JSONL) instead of a table",
    )
    add_runner_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    worker = sub.add_parser(
        "worker",
        help="join a distributed sweep: claim points from a queue "
             "directory under a heartbeat-extended lease, write results "
             "to the shared store, exit when the queue drains",
    )
    worker.add_argument(
        "--queue", metavar="DIR", required=True,
        help="queue directory of the coordinating `repro sweep --distributed`",
    )
    worker.add_argument(
        "--store", metavar="DIR", default=None,
        help="shared result store — must be the coordinator's store "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    worker.add_argument(
        "--id", metavar="NAME", default=None,
        help="worker identity for leases and the manifest (default: host-pid)",
    )
    worker.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="lease duration per claimed point; the heartbeat extends it "
             "at a third of this period (default: 30)",
    )
    worker.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="requeue a failing point up to N times (with backoff) "
             "before recording a terminal failure (default: 0)",
    )
    worker.add_argument(
        "--no-drain", action="store_true",
        help="stay parked for more work after the queue drains (until "
             "SIGTERM) instead of exiting",
    )
    worker.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="exit after settling N points (smoke tests)",
    )
    worker.add_argument(
        "--verbose", action="store_true",
        help="log worker lifecycle to stderr",
    )
    worker.add_argument(
        "--sanitize", action="store_true",
        help="run claimed points under the runtime sim-sanitizer",
    )
    worker.set_defaults(handler=cmd_worker)

    trace = sub.add_parser(
        "trace",
        help="record one scenario as a Chrome trace-event JSON "
             "(Perfetto/chrome://tracing): per-core C-state intervals, "
             "request lifecycle spans, hedge and snoop marks",
    )
    _add_axis_flags(trace, swept=False)
    # Traces grow with every C-state transition and request: record 50 ms
    # unless asked for more.
    trace.set_defaults(horizon=0.05)
    trace.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="ring-buffer capacity in events (default: recorder default); "
             "overflow drops oldest events and is reported",
    )
    trace.add_argument(
        "-o", "--output", metavar="FILE", default="trace.json",
        help="output path (default: trace.json)",
    )
    trace.set_defaults(handler=cmd_trace)

    report = sub.add_parser(
        "report",
        help="build a one-page self-contained HTML report: experiment "
             "figures, telemetry timeline and sweep manifest summary",
    )
    add_selection_flags(report)
    report.add_argument(
        "--telemetry-hz", type=float, default=None, metavar="HZ",
        help="include a telemetry-timeline section sampled at HZ from a "
             "representative 100 KQPS run",
    )
    report.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="include a summary of this sweep run-manifest JSONL; pass a "
             "distributed sweep's <queue_dir>/manifests directory for "
             "the per-worker fleet view (tolerates manifests from "
             "killed workers)",
    )
    report.add_argument(
        "-o", "--output", metavar="FILE", default="report.html",
        help="output path (default: report.html)",
    )
    add_runner_flags(report, distributed=False)
    report.set_defaults(handler=cmd_report)

    cache = sub.add_parser(
        "cache", help="inspect or clean the persistent result store"
    )
    cache.add_argument(
        "action", choices=["stats", "prune", "clear"],
        help="stats: show counts/size; prune: drop records from other code "
             "versions (add --max-bytes for LRU eviction); clear: drop "
             "everything",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="with prune: additionally evict least-recently-accessed "
             "records until the store fits N bytes",
    )
    add_cache_dir(cache)
    cache.set_defaults(handler=cmd_cache)

    lint = sub.add_parser(
        "lint",
        help=(
            "static determinism & invariant analysis "
            "(DET/FAST/CONC/DEAD/ANA rules)"
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to analyze (default: the repro source "
             "tree this installation runs from)",
    )
    lint.add_argument(
        "-f", "--format", choices=["text", "json"], default="text",
        dest="format", help="report format (default: text)",
    )
    lint.add_argument(
        "-j", "--jobs", type=int, metavar="N",
        help="analyze files over N worker processes (default: auto-sized "
             "for large file sets, serial for small ones)",
    )
    lint.add_argument(
        "--rules", action="store_true",
        help="print the rule catalog (id, title, rationale) and exit",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="accepted-findings baseline to compare against (default: the "
             "committed zero-finding baseline)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report raw findings without baseline comparison",
    )
    lint.add_argument(
        "--no-project-checks", action="store_true",
        help="skip the project-level CONC and DEAD checks (process "
             "boundaries, reachability), running only the per-file rules",
    )
    lint.add_argument(
        "--fix-stale", action="store_true",
        help="delete stale allow[...] suppression clauses (ANA003) from "
             "the analyzed files in place, then exit",
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/invariant analysis with the baseline gate."""
    from repro import analyze

    if args.rules:
        for rule_id, title, rationale in analyze.rule_catalog():
            print(f"{rule_id}  {title}")
            for line in rationale.splitlines():
                print(f"    {line}")
            print()
        return EXIT_OK

    # Default to the installed repro package so `python -m repro lint`
    # means "lint this codebase" from any working directory.
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    if args.fix_stale:
        try:
            removed = analyze.fix_stale_suppressions(paths, jobs=args.jobs)
        except ReproError as exc:
            print(f"lint --fix-stale failed: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"removed {removed} stale suppression clause(s)")
        return EXIT_OK
    try:
        result = analyze.run_lint(
            paths, jobs=args.jobs,
            project_checks=not args.no_project_checks,
        )
        if args.no_baseline:
            baseline = []
        elif args.baseline is not None:
            baseline = analyze.load_baseline(args.baseline)
        else:
            baseline = analyze.load_baseline()
    except ReproError as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return EXIT_USAGE

    gating = analyze.compare_to_baseline(result.findings, baseline)
    if args.format == "json":
        print(analyze.render_json(result))
    else:
        print(analyze.render_text(result))
        accepted = len(result.findings) - len(gating)
        if accepted:
            print(f"{accepted} finding(s) accepted by baseline")
    return EXIT_ERROR if gating else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "sanitize", False):
        from repro.simkit import sanitizer

        scope: "contextlib.AbstractContextManager[None]" = sanitizer.enabled(True)
    else:
        scope = contextlib.nullcontext()
    try:
        with scope:
            return args.handler(args)
    except BrokenPipeError:
        # `repro ... | head` closes stdout early; that is the reader's
        # choice, not an error. Detach stdout so the interpreter's exit
        # flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
