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
    python -m repro report --all --quick -o report.html # one-page HTML
    python -m repro report fig8 table3 --telemetry-hz 20 -o report.html
    python -m repro cache stats          # result-store hygiene
    python -m repro cache prune --max-bytes 100000000   # LRU size cap
    python -m repro bench --quick        # substrate benchmarks + gate
    python -m repro bench cluster --tolerance 0.5       # one named suite
    python -m repro bench --quick --update-baseline     # refresh floor
    python -m repro lint src             # determinism/invariant analysis
    python -m repro lint --rules         # print the rule catalog
    python -m repro lint src --format json              # machine-readable
    python -m repro lint --update-codec-manifest        # after codec bumps

Experiments come from the declarative registry
(:mod:`repro.experiments.api`): ``run`` collects the union of every
selected experiment's scenario grid, executes it as *one* deduplicated
batched sweep (shared points — Fig 10 ⊇ Fig 9, Table 5 ⊇ Fig 8 — are
simulated once process-wide), then analyzes and renders each experiment
from the shared result map. ``--format`` selects table (default), json,
jsonl or csv output; ``--out DIR`` writes one file per experiment.

Simulated points persist in an on-disk result store (``--cache-dir``,
``$REPRO_CACHE_DIR``, default ``~/.cache/repro``), so repeated
invocations only simulate what the store has not seen for the current
code version. ``--no-cache`` disables it; ``repro cache`` inspects,
prunes or clears it.

Exit codes: 0 on success, 1 on simulation/configuration errors (including
sweeps that completed with skipped/recorded point failures), 2 on usage
errors (unknown experiment, empty selection, bad sweep axis or grid file).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, List, Optional

from repro.errors import ReproError
from repro.experiments.api import (
    FORMATS,
    experiment_ids,
    get_experiment,
    output_extension,
    parse_param_overrides,
    render,
    run_experiments,
)
from repro.experiments.common import format_table
from repro.store import ResultStore
from repro.sweep import (
    FailurePolicy,
    ProgressRenderer,
    ScenarioGrid,
    ShardedExecutor,
    SweepRunner,
    configure_default_runner,
    default_runner,
    failure_record,
    result_record,
    set_default_runner,
)
from repro.sweep.runner import EMIT_LEVELS
from repro.sweep.spec import (
    DEFAULT_CORES,
    DEFAULT_HORIZON,
    DEFAULT_SEED,
    GOVERNOR_FACTORIES,
)
from repro.units import seconds_to_us

#: Exit codes (sysexits-style: 2 matches argparse's own usage errors).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

#: Experiment ids in registry (reading) order. Kept as a module-level
#: list for backwards compatibility; the registry is the source of truth.
EXPERIMENT_IDS: List[str] = experiment_ids()


def _make_store(no_cache: bool, cache_dir: Optional[str]) -> Optional[ResultStore]:
    """Open the persistent result store unless disabled; never fatal."""
    import sqlite3

    if no_cache:
        return None
    try:
        return ResultStore(cache_dir)
    except (OSError, sqlite3.Error) as exc:
        # Unwritable directory, corrupt database, incompatible sqlite:
        # run uncached rather than refusing to run at all.
        print(f"warning: result store disabled ({exc})", file=sys.stderr)
        return None


@contextlib.contextmanager
def _configured_runner(
    jobs: Optional[int] = None,
    no_cache: bool = False,
    cache_dir: Optional[str] = None,
    policy: Optional[FailurePolicy] = None,
    progress: Optional[ProgressRenderer] = None,
    shards: Optional[int] = None,
    manifest=None,
    queue_dir: Optional[str] = None,
) -> Iterator[SweepRunner]:
    """Point the process-wide runner at this command's configuration.

    The previous runner is restored on exit, so CLI flags (store location,
    failure policy, progress hooks) never leak into later programmatic use
    of :func:`repro.sweep.default_runner` in the same process.
    """
    from repro.errors import ConfigurationError

    previous = default_runner()
    store = _make_store(no_cache, cache_dir)
    if queue_dir is not None:
        # --distributed: coordinate lease-claiming worker processes over
        # a shared queue directory; the store is the result channel.
        from repro.distrib import DistributedExecutor

        if store is None:
            raise ConfigurationError(
                "--distributed requires a writable result store: workers "
                "return results through it (do not pass --no-cache)"
            )
        executor: object = DistributedExecutor(
            queue_dir,
            store_dir=str(store.root),
            jobs=jobs if jobs is not None else 3,
            policy=policy,
        )
    elif shards is not None:
        # --shards parallelises *within* each cluster point (node-range
        # sharding, exact merge) instead of across points.
        executor = ShardedExecutor(shards, jobs=jobs, policy=policy)
    else:
        executor = "process" if jobs is not None and jobs > 1 else "serial"
    runner = configure_default_runner(
        executor=executor,
        jobs=jobs,
        progress=progress,
        store=store,
        policy=policy,
        manifest=manifest,
    )
    try:
        yield runner
    finally:
        if progress is not None:
            progress.close()
        set_default_runner(previous)


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
    known = experiment_ids()
    targets = known if run_all else ids
    if not targets:
        print("nothing to run: name experiments or pass --all", file=sys.stderr)
        return EXIT_USAGE
    if distributed is not None and no_cache:
        print(
            "--distributed cannot be combined with --no-cache: workers "
            "return results through the shared store",
            file=sys.stderr,
        )
        return EXIT_USAGE
    unknown = [i for i in targets if i not in known]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            "run `python -m repro list`",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if params and len(targets) != 1:
        # key=value overrides target ONE Params dataclass; applying the
        # same keys across experiments would fail (or worse, silently
        # mean different things), so require an unambiguous selection.
        print(
            "--params overrides the parameters of exactly one experiment; "
            f"got {len(targets)} selected",
            file=sys.stderr,
        )
        return EXIT_USAGE
    experiments = [get_experiment(experiment_id) for experiment_id in targets]
    if quick:
        experiments = [experiment.quick() for experiment in experiments]
    if params:
        try:
            # Overrides layer on top of --quick, so `--quick --params
            # nodes=2` keeps the reduced grid with one knob changed.
            experiments = [parse_param_overrides(experiments[0], params)]
        except ReproError as exc:
            print(f"invalid --params: {exc}", file=sys.stderr)
            return EXIT_USAGE
    progress = None
    if jobs is not None and jobs > 1:
        progress = ProgressRenderer(label="run")
    with _configured_runner(
        jobs, no_cache, cache_dir, progress=progress, queue_dir=distributed,
    ) as runner:
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
    from repro.errors import ConfigurationError

    try:
        with open(path) as handle:
            text = handle.read().strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read grid file {path}: {exc}") from exc
    if not text:
        raise ConfigurationError(f"grid file {path} is empty")
    try:
        if text.startswith("["):
            dicts = json.loads(text)
        else:
            dicts = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"grid file {path} is not valid JSON/JSONL: {exc}") from exc
    if not isinstance(dicts, list) or not all(isinstance(d, dict) for d in dicts):
        raise ConfigurationError(
            f"grid file {path} must hold a list of ScenarioSpec dicts"
        )
    if not dicts:
        raise ConfigurationError(f"grid file {path} holds no points")
    return ScenarioGrid.from_dicts(dicts)


def _build_sweep_grid(args: argparse.Namespace) -> ScenarioGrid:
    """The swept grid: from ``--grid FILE`` or the axis flags.

    Raises:
        ReproError: on invalid axes, grid files, or conflicting inputs.
    """
    from repro.errors import ConfigurationError

    qps = list(args.qps or []) + [k * 1000.0 for k in args.kqps or []]
    if args.grid:
        # A grid file defines every axis itself; silently ignoring axis
        # flags would let `--grid f --governor oracle` lie to the user.
        axis_flags = [
            ("--qps/--kqps", bool(qps)),
            ("--workload", args.workload != ["memcached"]),
            ("--config", args.config != ["baseline"]),
            ("--cores", args.cores != [DEFAULT_CORES]),
            ("--horizon", args.horizon != [DEFAULT_HORIZON]),
            ("--seed", args.seed != [DEFAULT_SEED]),
            ("--governor", args.governor != ["menu"]),
            ("--turbo/--no-turbo", args.turbo or args.no_turbo),
            ("--no-snoops", args.no_snoops),
            ("--nodes", args.nodes != [1]),
            ("--balancer", args.balancer != ["random"]),
            ("--fanout", args.fanout != [1]),
            ("--hedge-ms", args.hedge_ms is not None),
            ("--sketch-error", args.sketch_error is not None),
            ("--telemetry-hz", args.telemetry_hz is not None),
        ]
        conflicting = [name for name, given in axis_flags if given]
        if conflicting:
            raise ConfigurationError(
                f"pass either --grid or axis flags, not both "
                f"(got {', '.join(conflicting)})"
            )
        return _load_grid_file(args.grid)
    if not qps:
        raise ConfigurationError("sweep needs at least one rate: pass --qps or --kqps")
    turbo = None
    if args.turbo:
        turbo = True
    elif args.no_turbo:
        turbo = False
    return ScenarioGrid.product(
        workloads=args.workload,
        configs=args.config,
        qps=qps,
        cores=args.cores,
        horizons=args.horizon,
        seeds=args.seed,
        governors=args.governor,
        turbo=turbo,
        snoops=not args.no_snoops,
        nodes=args.nodes,
        balancers=args.balancer,
        fanouts=args.fanout,
        hedge_ms=args.hedge_ms,
        sketch_error=args.sketch_error,
        telemetry_hz=args.telemetry_hz,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a declarative scenario grid and emit per-point results."""
    try:
        from repro.errors import ConfigurationError

        if args.distributed is not None:
            # Checked before the generic --timeout/--jobs rules: under
            # --distributed, --jobs counts worker processes, and the
            # distributed-specific messages are the useful ones.
            if args.no_cache:
                raise ConfigurationError(
                    "--distributed cannot be combined with --no-cache: "
                    "workers return results through the shared store"
                )
            if args.shards is not None:
                raise ConfigurationError(
                    "--distributed cannot be combined with --shards"
                )
            if args.timeout is not None:
                raise ConfigurationError(
                    "--distributed does not take --timeout: runaway "
                    "points are bounded by lease expiry instead"
                )
            if _make_store(False, args.cache_dir) is None:
                raise ConfigurationError(
                    "--distributed requires a writable result store"
                )
        if args.timeout is not None and args.distributed is None and (
            args.jobs is None or args.jobs <= 1
        ):
            # Accepting the flag but never enforcing it would be worse
            # than rejecting it: serial execution cannot interrupt a
            # running point.
            raise ConfigurationError("--timeout requires --jobs N (N > 1)")
        if args.timeout is not None and args.shards is not None:
            # The sharded executor runs points in order in this process;
            # like the serial executor it cannot interrupt one.
            raise ConfigurationError(
                "--timeout cannot be combined with --shards"
            )
        if args.shards is not None and args.shards <= 0:
            raise ConfigurationError(
                f"--shards must be positive, got {args.shards}"
            )
        grid = _build_sweep_grid(args)
        policy = FailurePolicy(
            mode=args.on_error, timeout=args.timeout, retries=args.retries
        )
    except ReproError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    progress = ProgressRenderer(label="sweep") if args.progress else None
    if args.manifest:
        from repro.obs import RunManifest

        manifest_scope: "contextlib.AbstractContextManager" = RunManifest(
            args.manifest
        )
    else:
        manifest_scope = contextlib.nullcontext()
    with manifest_scope as manifest, _configured_runner(
        args.jobs, args.no_cache, args.cache_dir, policy=policy,
        progress=progress, shards=args.shards, manifest=manifest,
        queue_dir=args.distributed,
    ) as runner:
        try:
            results = runner.run_grid(grid)
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
                    f"{seconds_to_us(record['avg_latency']):.1f}us",
                    f"{seconds_to_us(record['p99_latency']):.1f}us",
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


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a distributed sweep as one lease-claiming worker process."""
    from repro.distrib.worker import default_worker_id, worker_main
    from repro.errors import ConfigurationError

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


def _trace_spec(args: argparse.Namespace):
    """Build the single ScenarioSpec a ``repro trace`` run records."""
    from repro.sweep.spec import ScenarioSpec

    if (args.qps is None) == (args.kqps is None):
        from repro.errors import ConfigurationError

        raise ConfigurationError("trace needs exactly one rate: --qps or --kqps")
    qps = args.qps if args.qps is not None else args.kqps * 1000.0
    turbo = True if args.turbo else (False if args.no_turbo else None)
    return ScenarioSpec(
        workload=args.workload, config=args.config, qps=qps,
        cores=args.cores, horizon=args.horizon, seed=args.seed,
        governor=args.governor, turbo=turbo, snoops=not args.no_snoops,
        nodes=args.nodes, balancer=args.balancer, fanout=args.fanout,
        hedge_ms=args.hedge_ms, telemetry_hz=args.telemetry_hz,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one scenario into a Chrome trace-event JSON for Perfetto."""
    from repro.obs.chrometrace import export_chrome_trace

    from repro.errors import ConfigurationError

    try:
        spec = _trace_spec(args)
    except ConfigurationError as exc:
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
    from repro.bench import find_repo_root
    from repro.errors import ConfigurationError
    from repro.obs.report import build_report

    known = experiment_ids()
    targets = known if args.all else args.ids
    if not targets and args.manifest is None:
        print(
            "nothing to report: name experiments, pass --all, or pass "
            "--manifest for a manifest-only report",
            file=sys.stderr,
        )
        return EXIT_USAGE
    unknown = [i for i in targets if i not in known]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            "run `python -m repro list`",
            file=sys.stderr,
        )
        return EXIT_USAGE
    experiments = [get_experiment(experiment_id) for experiment_id in targets]
    if args.quick:
        experiments = [experiment.quick() for experiment in experiments]
    progress = None
    if args.jobs is not None and args.jobs > 1:
        progress = ProgressRenderer(label="report")
    timeline = None
    timeline_label = ""
    with _configured_runner(
        args.jobs, args.no_cache, args.cache_dir, progress=progress
    ) as runner:
        try:
            results = run_experiments(experiments, runner=runner)
            if args.telemetry_hz is not None:
                from repro.sweep.spec import ScenarioSpec

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
    try:
        root: Optional[str] = find_repo_root()
    except ConfigurationError:
        root = None  # no benchmarks/ nearby: skip the trend section
    page = build_report(
        experiments, results,
        timeline=timeline, timeline_label=timeline_label,
        manifest_path=args.manifest, root=root,
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
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate AgileWatts (MICRO 2022) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    def add_cache_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--no-cache", action="store_true",
            help="do not read or write the persistent result store",
        )
        command.add_argument(
            "--cache-dir", metavar="DIR",
            help="result store location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )

    run = sub.add_parser("run", help="run experiments (one batched sweep)")
    run.add_argument("ids", nargs="*", help="experiment ids (see `list`)")
    run.add_argument("--all", action="store_true", help="run everything")
    run.add_argument(
        "-f", "--format", choices=list(FORMATS), default="table", dest="format",
        help="output format: human tables (default) or structured records",
    )
    run.add_argument(
        "-o", "--out", "--output-dir", dest="output_dir", metavar="DIR",
        help="write one file per experiment (.txt/.json/.jsonl/.csv by format)",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="reduced grids (one light rate, short horizon) for smoke runs",
    )
    run.add_argument(
        "--params", nargs="+", metavar="KEY=VALUE", default=None,
        help="override fields of the selected experiment's Params dataclass "
             "(typed by the field annotation; tuples parse from "
             "comma-separated items, e.g. fanouts=1,2,4); requires exactly "
             "one experiment",
    )
    run.add_argument(
        "-j", "--jobs", type=int, metavar="N",
        help="simulate sweep points over N worker processes (with progress meter)",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="run with the runtime sim-sanitizer (SAN rules): checked "
             "engine loop plus periodic deep audits; results stay "
             "bit-identical, simulation runs a constant factor slower",
    )
    run.add_argument(
        "--distributed", metavar="QUEUE_DIR", default=None,
        help="fan sweep points out to lease-claiming worker processes "
             "over this queue directory (-j sets the local worker count; "
             "external `repro worker` processes may join); rerunning "
             "with the same directory resumes a crashed run",
    )
    add_cache_flags(run)

    sweep = sub.add_parser(
        "sweep", help="run a scenario grid (workload x config x rate x governor)"
    )
    sweep.add_argument(
        "--grid", metavar="FILE",
        help="read the grid from a JSON/JSONL file of ScenarioSpec dicts "
             "(instead of the axis flags)",
    )
    sweep.add_argument(
        "--workload", nargs="+", default=["memcached"],
        help="workload names (default: memcached)",
    )
    sweep.add_argument(
        "--config", nargs="+", default=["baseline"],
        help="named configurations (default: baseline)",
    )
    sweep.add_argument(
        "--qps", nargs="+", type=float, help="request rates in queries/second"
    )
    sweep.add_argument(
        "--kqps", nargs="+", type=float, help="request rates in thousands of QPS"
    )
    sweep.add_argument("--cores", nargs="+", type=int, default=[DEFAULT_CORES])
    sweep.add_argument("--horizon", nargs="+", type=float, default=[DEFAULT_HORIZON])
    sweep.add_argument("--seed", nargs="+", type=int, default=[DEFAULT_SEED])
    sweep.add_argument(
        "--governor", nargs="+", default=["menu"],
        help=f"idle governors (choices: {sorted(GOVERNOR_FACTORIES)})",
    )
    turbo_group = sweep.add_mutually_exclusive_group()
    turbo_group.add_argument(
        "--turbo", action="store_true", help="force Turbo on for every config"
    )
    turbo_group.add_argument(
        "--no-turbo", action="store_true", help="force Turbo off for every config"
    )
    sweep.add_argument(
        "--no-snoops", action="store_true", help="disable background snoop traffic"
    )
    sweep.add_argument(
        "--nodes", nargs="+", type=int, default=[1],
        help="cluster sizes: simulate N server nodes behind a load "
             "balancer (default: 1, the single-node path)",
    )
    sweep.add_argument(
        "--balancer", nargs="+", default=["random"],
        help="cluster load balancers (random, round_robin, jsq, power_of_two)",
    )
    sweep.add_argument(
        "--fanout", nargs="+", type=int, default=[1],
        help="leaf sub-requests per logical request (completes at the "
             "slowest leaf); must not exceed --nodes",
    )
    sweep.add_argument(
        "--hedge-ms", type=float, default=None, metavar="MS",
        help="hedged requests: duplicate leaves still outstanding after "
             "MS milliseconds onto another node (first answer wins)",
    )
    sweep.add_argument(
        "--sketch-error", type=float, default=None, metavar="FRAC",
        help="track latency with a mergeable bounded-memory DDSketch at "
             "this relative-error guarantee (e.g. 0.01) instead of exact "
             "samples — the fleet-scale memory knob",
    )
    sweep.add_argument(
        "--telemetry-hz", type=float, default=None, metavar="HZ",
        help="sample a simulated-time telemetry timeline (power, C-state "
             "occupancy, load) at HZ samples per simulated second into "
             "each result; metrics stay bit-identical to an unsampled run",
    )
    sweep.add_argument(
        "--manifest", metavar="FILE",
        help="append a run manifest (one JSON line per lifecycle event: "
             "claimed/finished/retry/timeout/failed/memo_hit/store_hit) "
             "to FILE while the sweep runs",
    )
    sweep.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="split each cluster point into S node-range shards run on a "
             "process pool and merged exactly (bit-identical to the "
             "serial result); requires stateless balancing "
             "(random/round_robin), fanout 1 and no hedging",
    )
    sweep.add_argument(
        "-j", "--jobs", type=int, metavar="N",
        help="simulate points over N worker processes (with --shards: "
             "pool width for in-point sharding instead)",
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
        help="per-point wall-clock budget; an overrunning point's worker "
             "is terminated (requires --jobs: only the parallel executor "
             "can stop a point)",
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
    sweep.add_argument(
        "--sanitize", action="store_true",
        help="run with the runtime sim-sanitizer (SAN rules); worker "
             "processes inherit the setting via REPRO_SANITIZE",
    )
    sweep.add_argument(
        "--distributed", metavar="QUEUE_DIR", default=None,
        help="fan points out to lease-claiming worker processes over "
             "this queue directory (-j sets the local worker count, "
             "default 3; external `repro worker --queue QUEUE_DIR` "
             "processes may join); rerunning with the same directory "
             "resumes a crashed run, skipping store-hit points",
    )
    add_cache_flags(sweep)

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

    trace = sub.add_parser(
        "trace",
        help="record one scenario as a Chrome trace-event JSON "
             "(Perfetto/chrome://tracing): per-core C-state intervals, "
             "request lifecycle spans, hedge and snoop marks",
    )
    trace.add_argument("--workload", default="memcached")
    trace.add_argument("--config", default="baseline")
    rate_group = trace.add_mutually_exclusive_group()
    rate_group.add_argument("--qps", type=float, help="request rate in QPS")
    rate_group.add_argument("--kqps", type=float, help="request rate in KQPS")
    trace.add_argument("--cores", type=int, default=DEFAULT_CORES)
    trace.add_argument(
        "--horizon", type=float, default=0.05,
        help="simulated seconds to record (default 0.05: traces grow "
             "with every C-state transition and request)",
    )
    trace.add_argument("--seed", type=int, default=DEFAULT_SEED)
    trace.add_argument("--governor", default="menu")
    trace_turbo = trace.add_mutually_exclusive_group()
    trace_turbo.add_argument("--turbo", action="store_true")
    trace_turbo.add_argument("--no-turbo", action="store_true")
    trace.add_argument("--no-snoops", action="store_true")
    trace.add_argument("--nodes", type=int, default=1)
    trace.add_argument("--balancer", default="random")
    trace.add_argument("--fanout", type=int, default=1)
    trace.add_argument("--hedge-ms", type=float, default=None, metavar="MS")
    trace.add_argument(
        "--telemetry-hz", type=float, default=None, metavar="HZ",
        help="additionally sample the telemetry timeline during the run",
    )
    trace.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="ring-buffer capacity in events (default: recorder default); "
             "overflow drops oldest events and is reported",
    )
    trace.add_argument(
        "-o", "--output", metavar="FILE", default="trace.json",
        help="output path (default: trace.json)",
    )

    report = sub.add_parser(
        "report",
        help="build a one-page self-contained HTML report: experiment "
             "figures, telemetry timeline, sweep manifest summary and "
             "benchmark trend",
    )
    report.add_argument("ids", nargs="*", help="experiment ids (see `list`)")
    report.add_argument("--all", action="store_true", help="report everything")
    report.add_argument(
        "--quick", action="store_true",
        help="reduced experiment grids (CI smoke, seconds per experiment)",
    )
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
    report.add_argument(
        "-j", "--jobs", type=int, metavar="N",
        help="simulate experiment points over N worker processes",
    )
    add_cache_flags(report)

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
    cache.add_argument(
        "--cache-dir", metavar="DIR",
        help="result store location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the pytest-benchmark suites, write BENCH_*.json, and "
             "gate against the committed baseline",
    )
    bench.add_argument(
        "suite", nargs="?", default=None,
        help="suite name (simulator, sweep, cluster, cluster_sharded, "
             "all); default: all, or simulator with --quick",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="run the fast substrate suite only (alias for `bench simulator`)",
    )
    bench.add_argument(
        "-o", "--out", metavar="FILE",
        help="machine-readable results file (default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--baseline", metavar="FILE",
        help="baseline to gate against (default: benchmarks/BENCH_baseline.json)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="fractional slowdown allowed before failing (default: 0.25)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="merge this run's results into the baseline instead of gating",
    )
    bench.add_argument(
        "--no-compare", action="store_true",
        help="write results only; skip the baseline gate",
    )

    lint = sub.add_parser(
        "lint",
        help="static determinism & invariant analysis (DET/FAST/SPEC rules)",
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
        help="skip the project-level SPEC invariant checks (cache-key / "
             "codec coverage), running only the per-file rules",
    )
    lint.add_argument(
        "--fix-stale", action="store_true",
        help="delete stale allow[...] suppression clauses (ANA003) from "
             "the analyzed files in place, then exit",
    )
    lint.add_argument(
        "--update-codec-manifest", action="store_true",
        help="re-fingerprint the store codec and write the committed "
             "manifest (run after an intentional, version-bumped codec "
             "change), then exit",
    )
    return parser


def cmd_bench(args: argparse.Namespace) -> int:
    """Run benchmark suites and gate against the committed baseline."""
    from repro import bench
    from repro.errors import ConfigurationError

    if args.tolerance is not None and args.tolerance < 0:
        print(f"--tolerance must be >= 0, got {args.tolerance}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite is not None and args.quick:
        print("pass either a suite name or --quick, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.suite is not None and args.suite not in bench.SUITES:
        print(
            f"unknown bench suite {args.suite!r}; "
            f"choose from {sorted(bench.SUITES)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        return bench.main(
            suite=args.suite,
            quick=args.quick,
            out=args.out,
            baseline=args.baseline,
            tolerance=(
                bench.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
            ),
            do_update_baseline=args.update_baseline,
            no_compare=args.no_compare,
        )
    except ConfigurationError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return EXIT_ERROR


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
    if args.update_codec_manifest:
        try:
            manifest = analyze.update_codec_manifest()
        except ReproError as exc:
            print(f"cannot update codec manifest: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(
            f"wrote codec manifest: format_version="
            f"{manifest['format_version']} fingerprint={manifest['fingerprint']}"
        )
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
            if args.command == "list":
                return cmd_list()
            if args.command == "sweep":
                return cmd_sweep(args)
            if args.command == "worker":
                return cmd_worker(args)
            if args.command == "trace":
                return cmd_trace(args)
            if args.command == "report":
                return cmd_report(args)
            if args.command == "cache":
                return cmd_cache(args)
            if args.command == "bench":
                return cmd_bench(args)
            if args.command == "lint":
                return cmd_lint(args)
            return cmd_run(
                args.ids, args.all, args.output_dir, args.jobs,
                no_cache=args.no_cache, cache_dir=args.cache_dir,
                fmt=args.format, quick=args.quick, params=args.params,
                distributed=args.distributed,
            )
    except BrokenPipeError:
        # `repro ... | head` closes stdout early; that is the reader's
        # choice, not an error. Detach stdout so the interpreter's exit
        # flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
