"""Sweep execution: memoised, store-backed runs through pluggable executors.

The runner separates *what* to simulate (:class:`ScenarioSpec`) from *how*
to execute it:

- :class:`SerialExecutor` runs points in order in the calling process;
- :class:`ProcessExecutor` runs points on ``jobs`` owned worker
  processes, one job in flight per worker, so thousand-point grids
  hold O(jobs) task payloads in flight instead of the whole grid and any
  job can be stopped by terminating its worker. :class:`ShardedExecutor`
  configures it to run each cluster point as node-range jobs.

Those and :class:`~repro.distrib.DistributedExecutor` settle every point
through one private ledger, so retry and failure-mode semantics are
written once. All feed one shared memo cache keyed on the spec's
canonical cache key, so experiments that revisit points (Fig 10 reuses
Fig 9's baselines; Table 5 reuses Fig 8's sweep) simulate each point
exactly once per process, regardless of which runner instance asked
first. A runner may additionally
carry a persistent :class:`~repro.store.ResultStore`, layered *under* the
memo: misses consult the store before simulating, and fresh results are
written back, so repeated CLI invocations reuse runs across processes.

Individual failures are governed by a :class:`FailurePolicy` — per-point
timeout, retry count, and a ``raise``/``skip``/``record`` mode — so one bad
point no longer discards an entire sweep. Even in ``raise`` mode the
process executor stops dispatching and delivers the results of points
already running (they reach ``on_result`` and therefore the caches)
before propagating the error.

Simulations are deterministic functions of their spec, so serial and
parallel execution produce identical results — worker processes only
change wall-clock time.
"""

from __future__ import annotations

import inspect
import multiprocessing
import signal
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from time import monotonic
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster import sharding
from repro.cluster.balancer import (
    BALANCER_FACTORIES,
    IMPORT_TIME_BALANCER_FACTORIES,
)
from repro.errors import ConfigurationError, PointTimeoutError, SimulationError
from repro.server.metrics import RunResult
from repro.sweep.spec import (
    GOVERNOR_FACTORIES,
    IMPORT_TIME_GOVERNOR_FACTORIES,
    IMPORT_TIME_WORKLOAD_FACTORIES,
    WORKLOAD_FACTORIES,
    CacheKey,
    ScenarioGrid,
    ScenarioSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.manifest import RunManifest

#: ``progress(done, total, spec)`` — called after each point settles
#: (success *or* terminal failure), so meters always reach ``total``.
ProgressHook = Callable[[int, int, ScenarioSpec], None]

#: ``log(message)`` — called for coarse runner lifecycle messages.
LogHook = Callable[[str], None]

#: Process-wide memo cache shared by every runner (unless overridden).
_SHARED_CACHE: Dict[CacheKey, RunResult] = {}

#: How many fresh results accumulate before a batched store write.
#: Large enough to amortise sqlite round-trips on thousand-point grids,
#: small enough that a hard kill mid-sweep loses at most one chunk.
STORE_FLUSH_CHUNK = 128


def clear_shared_cache() -> None:
    """Drop all memoised runs (tests that need cold runs use this)."""
    _SHARED_CACHE.clear()


def _execute_spec_dict(
    data: Dict[str, object], node_range: Optional[Tuple[int, int]] = None
) -> object:
    """Worker-side entry point: rebuild the spec and run one job of it.

    Takes a plain dict (not a ScenarioSpec) so the pickled task payload
    stays decoupled from the dataclass layout. A ``(lo, hi)`` node range
    runs one shard (:func:`repro.cluster.sharding.run_shard`, looked up
    on the module so wrappers installed there reach forked workers).
    """
    spec = ScenarioSpec.from_dict(data)
    if node_range is None:
        return spec.execute()
    return sharding.run_shard(spec, *node_range)


# -- failure handling ---------------------------------------------------------

#: FailurePolicy modes.
RAISE = "raise"
SKIP = "skip"
RECORD = "record"
_MODES = (RAISE, SKIP, RECORD)


@dataclass(frozen=True)
class FailurePolicy:
    """What to do when one point fails.

    Attributes:
        mode: ``"raise"`` aborts the sweep on the first terminal failure
            (after stopping dispatch and delivering the results of points
            already running); ``"skip"`` drops the point (its result slot
            becomes ``None``); ``"record"`` keeps a :class:`PointFailure`
            in the result slot.
        timeout: per-job wall-clock budget in seconds (process executor,
            sharded or not), measured from the moment an idle worker
            receives the job (a point, or one shard of it), so queue wait
            does not count. A timed-out job fails its point's attempt and
            its worker is ``terminate()``-d and replaced, so a runaway
            simulation stops burning CPU at its budget. The distributed
            executor ignores this field — there, runaway points are
            bounded by lease expiry and requeued on another worker.
        retries: how many times a failed/timed-out point is resubmitted
            before its failure becomes terminal.
    """

    mode: str = RAISE
    timeout: Optional[float] = None
    retries: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown failure mode {self.mode!r}; choose from {list(_MODES)}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")


@dataclass
class PointFailure:
    """Terminal failure of one point (returned under ``record`` mode)."""

    spec: ScenarioSpec
    error: str
    attempts: int


#: ``on_failure(index, spec, failure)`` — called for each terminal
#: (post-retry) failure under the ``skip``/``record`` modes.
FailureHook = Callable[[int, ScenarioSpec, PointFailure], None]

#: ``on_result(index, spec, result)`` — called once per settled success.
ResultHook = Callable[[int, ScenarioSpec, RunResult], None]

Outcome = Optional[Union[RunResult, PointFailure]]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Ledger:
    """Settles the points of one ``map_specs`` call: the only place that
    fills result slots, applies the :class:`FailurePolicy`, calls the
    hooks and writes point-scoped manifest lines.

    Under ``raise`` the first terminal failure is kept in :attr:`error`,
    so an executor can drain what is running before raising it; later
    failures are dropped.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        policy: Optional[FailurePolicy] = None,
        on_result: Optional[ResultHook] = None,
        on_failure: Optional[FailureHook] = None,
        manifest: Optional["RunManifest"] = None,
    ):
        self.specs = specs
        self.policy = policy or FailurePolicy()
        self.on_result = on_result
        self.on_failure = on_failure
        self.manifest = manifest
        self.results: List[Outcome] = [None] * len(specs)
        self.error: Optional[BaseException] = None

    def emit(self, event: str, i: int, **fields: object) -> None:
        """Write one manifest line about point ``i`` (no-op without one)."""
        if self.manifest is None:
            return
        from repro.obs.manifest import spec_key

        self.manifest.emit(event, point=i, key=spec_key(self.specs[i]), **fields)

    def succeed(
        self, i: int, result: RunResult, attempt: Optional[int] = None, wall_s: float = 0.0
    ) -> None:
        """Settle point ``i`` with ``result``; an ``attempt`` that ran
        here (not in a remote worker) gets its ``finished`` line."""
        if attempt is not None:
            self.emit(
                "finished", i, attempt=attempt, wall_s=round(wall_s, 6),
                events_per_s=(
                    result.events_processed / wall_s if wall_s > 0 else None
                ),
            )
        self.results[i] = result
        if self.on_result is not None:
            self.on_result(i, self.specs[i], result)

    def fail(self, i: int, attempt: int, exc: BaseException) -> bool:
        """Settle a failed attempt at point ``i``: True to retry it."""
        if self.error is not None:
            return False
        if attempt <= self.policy.retries:
            self.emit("retry", i, attempt=attempt, error=_describe(exc))
            return True
        self.terminal([i], attempt, _describe(exc), exc)
        return False

    def terminal(
        self, indices: Sequence[int], attempts: int, error: str, exc: BaseException,
        **fields: object,
    ) -> None:
        """Settle a failure past its retries, for every slot in
        ``indices`` (duplicates of one point; the first names it)."""
        self.emit("failed", indices[0], attempt=attempts, error=error, **fields)
        if self.policy.mode == RAISE:
            self.error = exc
            return
        failure = PointFailure(self.specs[indices[0]], error, attempts)
        for i in indices:
            if self.policy.mode == RECORD:
                self.results[i] = failure
            if self.on_failure is not None:
                self.on_failure(i, self.specs[i], failure)


def _settle_here(
    ledger: _Ledger, indices: Iterable[int], run: Callable[[ScenarioSpec], RunResult]
) -> List[Outcome]:
    """The reference attempt loop: settle each point in ``indices`` in
    order, running every attempt here; re-raises under ``raise``."""
    for i in indices:
        attempt = 0
        while True:
            attempt += 1
            ledger.emit("claimed", i, attempt=attempt)
            started = monotonic()
            try:
                result = run(ledger.specs[i])
            except Exception as exc:
                if ledger.fail(i, attempt, exc):
                    continue
                if ledger.error is not None:
                    raise
            else:
                ledger.succeed(i, result, attempt, monotonic() - started)
            break
    return ledger.results


#: (spec axis, current registry, import-time registry) for each name a
#: worker resolves. Single-node specs canonicalise their balancer to the
#: built-in default, so theirs never trips the check.
_WORKER_REGISTRIES = (
    ("workload", WORKLOAD_FACTORIES, IMPORT_TIME_WORKLOAD_FACTORIES),
    ("governor", GOVERNOR_FACTORIES, IMPORT_TIME_GOVERNOR_FACTORIES),
    ("balancer", BALANCER_FACTORIES, IMPORT_TIME_BALANCER_FACTORIES),
)


def find_unregistered(specs: Sequence[ScenarioSpec]) -> Dict[str, List[str]]:
    """Names that worker processes would resolve wrongly, by spec axis.

    Maps ``"workload"``/``"governor"``/``"balancer"`` to the sorted names
    used by ``specs`` whose *current* factory differs from the
    import-time registry — either registered dynamically in this process
    only, or overriding a built-in name (workers would silently use the
    built-in factory instead). Axes with no such name are left out.
    """
    found: Dict[str, List[str]] = {}
    for axis, current, at_import in _WORKER_REGISTRIES:
        names = sorted(
            name
            for name in {getattr(spec, axis) for spec in specs}
            if current.get(name) is not at_import.get(name)
        )
        if names:
            found[axis] = names
    return found


def _check_worker_registries(
    specs: Sequence[ScenarioSpec], start_method: Optional[str] = None
) -> None:
    """Fail fast (and clearly) on parent-only registrations.

    With the ``fork`` start method workers inherit the parent's memory, so
    dynamically registered factories are visible. Under ``spawn`` or
    ``forkserver`` workers re-import :mod:`repro.sweep.spec` from scratch
    and would fail point-by-point with a baffling worker-side
    ``ConfigurationError("unknown governor ...")`` — catch that here,
    before anything is submitted, with an actionable message.
    """
    if start_method is None:
        start_method = multiprocessing.get_start_method()
    if start_method == "fork":
        return
    found = find_unregistered(specs)
    if not found:
        return
    names = " and ".join(f"{axis}(s) {names}" for axis, names in found.items())
    raise ConfigurationError(
        f"{names} registered or overridden only in this "
        f"process: {start_method!r} worker processes re-import "
        "repro.sweep.spec and will not see factories registered after "
        "import. Register them at import time of a module workers import "
        "(e.g. inside repro), or use the serial executor."
    )


# -- executors ----------------------------------------------------------------

class SerialExecutor:
    """Run points one at a time in the calling process.

    Honours the failure policy's ``mode`` and ``retries``; ``timeout`` is
    not enforced (a single-process executor cannot interrupt a running
    simulation).
    """

    name = "serial"

    def __init__(self, policy: Optional[FailurePolicy] = None):
        self.policy = policy or FailurePolicy()

    def map_specs(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[ResultHook] = None,
        on_failure: Optional[FailureHook] = None,
        log: Optional[LogHook] = None,
        manifest: Optional["RunManifest"] = None,
    ) -> List[Outcome]:
        ledger = _Ledger(specs, self.policy, on_result, on_failure, manifest)
        return _settle_here(ledger, range(len(specs)), ScenarioSpec.execute)


#: How long an idle worker may take to exit after being told to stop
#: before it is terminated.
_EXIT_GRACE_S = 5.0


def _worker_loop(conn) -> None:
    """Body of one owned worker process: run jobs until told to stop.

    Sends ``"ready"`` once, then answers each ``(spec_dict, node_range)``
    job with ``("ok", result)`` or ``("err", exception)``; an unpicklable
    exception degrades to its description. ``None`` or a closed pipe
    ends the loop normally, so the process's exit handlers still run.
    """
    # A SIGTERM handler inherited through fork (an inline distributed
    # worker installs one) would turn the parent's terminate() into a
    # no-op.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    conn.send("ready")
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        try:
            result = _execute_spec_dict(*job)
        except Exception as exc:  # ship, don't lose, worker-side failures
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", SimulationError(_describe(exc))))
        else:
            conn.send(("ok", result))


class _Worker:
    """One owned worker process and the job it is running, if any."""

    __slots__ = ("conn", "process", "ready", "job")

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_loop, args=(child,)
        )
        self.process.start()
        child.close()
        #: Set once the worker's "ready" message arrives.
        self.ready = False
        #: ``(index, attempt, node range, deadline)`` while busy.
        self.job: Optional[Tuple[int, "_Attempt", object, Optional[float]]] = None

    def receive(self) -> object:
        """The worker's next message, or ``None`` if it died instead.

        Only called once :func:`~multiprocessing.connection.wait` reports
        the pipe or the process sentinel ready. The pipe is checked
        first: a worker may have sent its outcome and then exited.
        """
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        except Exception as exc:  # a payload the parent cannot unpickle
            return ("err", SimulationError(
                f"unreadable worker result ({_describe(exc)})"
            ))
        self.stop(grace=_EXIT_GRACE_S)
        return None

    def stop(self, grace: float = 0.0) -> None:
        """Wait up to ``grace`` seconds for the process, then terminate it."""
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()


def _shutdown(workers: Sequence[_Worker]) -> None:
    """Stop idle workers cleanly and terminate busy ones."""
    for worker in workers:
        if worker.job is None:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone
    for worker in workers:
        worker.stop(grace=_EXIT_GRACE_S if worker.job is None else 0.0)


@dataclass
class _Attempt:
    """One attempt at a point on the workers, until it settles."""

    number: int
    #: When its first job reached a worker.
    started: Optional[float] = None
    #: Per-node results of its shards back so far, by first node.
    parts: Dict[int, List[RunResult]] = field(default_factory=dict)


class ProcessExecutor:
    """Run points on ``jobs`` owned worker processes, one job each.

    Results are identical to :class:`SerialExecutor` for the same specs:
    each simulation is a deterministic function of its spec, and results
    are returned positionally regardless of completion order.

    Each worker is a long-lived process on its own pipe that holds at
    most one job at a time, so a grid of thousands of points never
    materialises more than ``jobs`` payloads (or results) at once, and a
    job's clock starts when a worker receives it, never while queued.
    Completed results reach ``on_result`` as they arrive.

    A job is a whole point, unless ``shards`` is set (see
    :class:`ShardedExecutor`): then a cluster point that
    :func:`repro.cluster.sharding.check_shardable` accepts runs as
    ``shard_ranges(nodes, shards)`` node-range jobs that merge in node
    order once all are back, bit-identical to the serial result (a
    :class:`~repro.errors.ShardingError` is the point's failure).

    Failure handling follows the :class:`FailurePolicy`. A point's
    attempt fails when one of its jobs raises, when that job's worker
    dies (exit or kill), or when the job outlives ``timeout`` — then its
    worker is terminated, so the budget bounds worker CPU too. A lost
    worker is replaced in its slot; results of a failed attempt's other
    shards are dropped. Failed points are retried up to ``retries``
    times, then either abort the sweep (``raise`` — dispatch stops and
    in-flight jobs are drained so their points' results are delivered
    first), are dropped (``skip``), or yield a :class:`PointFailure`
    (``record``).
    """

    name = "process"
    #: Node-range jobs per cluster point; ``None`` runs every point whole.
    shards: Optional[int] = None

    def __init__(self, jobs: int = 4, policy: Optional[FailurePolicy] = None):
        if jobs <= 0:
            raise ConfigurationError(f"jobs must be positive, got {jobs}")
        self.jobs = jobs
        self.policy = policy or FailurePolicy()

    def _node_ranges(self, spec: ScenarioSpec) -> List[Optional[Tuple[int, int]]]:
        """The node range of each job an attempt at ``spec`` runs as.

        ``[None]`` is one job running the whole point. A cluster point
        sharding refuses has no jobs: it fails in :meth:`_run_here`.
        """
        if self.shards is None or not spec.is_cluster:
            return [None]
        if not sharding.is_shardable(spec):
            return []
        return sharding.shard_ranges(spec.nodes, self.shards)

    def _run_here(self, spec: ScenarioSpec) -> RunResult:
        """Run a point of at most one job in this process."""
        if not self._node_ranges(spec):
            sharding.check_shardable(spec)  # raises, naming the reason
        return spec.execute()

    def map_specs(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[ResultHook] = None,
        on_failure: Optional[FailureHook] = None,
        log: Optional[LogHook] = None,
        manifest: Optional["RunManifest"] = None,
    ) -> List[Outcome]:
        ledger = _Ledger(specs, self.policy, on_result, on_failure, manifest)
        plans = [self._node_ranges(spec) for spec in specs]
        if self.policy.timeout is None and sum(map(len, plans)) <= 1:
            # Worker start-up costs more than one job; run it inline (no
            # workers, so no registry constraints). Not when a timeout is
            # set: only a worker process can be stopped.
            return _settle_here(ledger, range(len(specs)), self._run_here)
        _check_worker_registries(specs)
        # Points sharding refuses fail here, before any worker starts.
        _settle_here(
            ledger, [i for i, plan in enumerate(plans) if not plan], self._run_here
        )

        policy = self.policy
        queue: Deque[Tuple[int, _Attempt, object]] = deque()
        running: Dict[int, _Attempt] = {}

        def enqueue(i: int, number: int) -> None:
            running[i] = attempt = _Attempt(number)
            queue.extend((i, attempt, node_range) for node_range in plans[i])

        for i, plan in enumerate(plans):
            if plan:
                enqueue(i, 1)
        width = min(self.jobs, len(queue))
        if log is not None and 0 < width < self.jobs:
            # More workers than jobs is a configuration smell, not an
            # error: clamp and say so rather than spawning idle processes.
            unit = "point(s)" if self.shards is None else "job(s)"
            log(
                f"sweep: clamped --jobs {self.jobs} to {width} "
                f"(only {len(queue)} {unit} to simulate)"
            )
        slots: List[Optional[_Worker]] = [None] * width

        def settle(worker: _Worker, outcome: object) -> None:
            """Turn a worker's outcome for its job into its point's
            result, failure or retry once the attempt is decided."""
            i, attempt, node_range, _ = worker.job
            worker.job = None
            if running.get(i) is not attempt:
                return  # a shard of an attempt that already failed
            kind, payload = outcome
            if kind == "ok" and node_range is not None:
                attempt.parts[node_range[0]] = payload
                if len(attempt.parts) < len(plans[i]):
                    return
                try:
                    payload = sharding.merge_node_results(specs[i], [
                        result
                        for _, part in sorted(attempt.parts.items())
                        for result in part
                    ])
                except Exception as exc:
                    kind, payload = "err", exc
            del running[i]
            number = attempt.number
            if kind == "ok":
                ledger.succeed(i, payload, number, monotonic() - attempt.started)
            elif ledger.fail(i, number, payload):
                enqueue(i, number + 1)

        try:
            while True:
                if ledger.error is not None:
                    # raise: stop dispatching; in-flight jobs are drained
                    # so their points' results still reach on_result.
                    queue.clear()
                idle = [w for w in slots if w is not None and w.job is None]
                for k, worker in enumerate(slots):
                    if worker is None and len(queue) > len(idle):
                        slots[k] = _Worker()
                        idle.append(slots[k])
                for worker in idle:
                    while worker.ready and queue:
                        i, attempt, node_range = queue.popleft()
                        if running.get(i) is not attempt:
                            continue  # a shard of an attempt that failed
                        now = monotonic()
                        if attempt.started is None:
                            attempt.started = now
                            ledger.emit("claimed", i, attempt=attempt.number)
                        worker.job = (
                            i, attempt, node_range,
                            None if policy.timeout is None else now + policy.timeout,
                        )
                        try:
                            worker.conn.send((specs[i].to_dict(), node_range))
                        except OSError:
                            pass  # a dead worker is settled after wait() below
                        break
                live = [w for w in slots if w is not None]
                busy = [w for w in live if w.job is not None]
                if not busy and not queue:
                    break
                timeout = None
                if policy.timeout is not None and busy:
                    nearest = min(w.job[3] for w in busy)
                    timeout = max(0.0, nearest - monotonic())
                signalled = set(wait(
                    [w.conn for w in live] + [w.process.sentinel for w in live],
                    timeout,
                ))
                for k, worker in enumerate(slots):
                    if worker is None or (
                        worker.conn not in signalled
                        and worker.process.sentinel not in signalled
                    ):
                        continue
                    message = worker.receive()
                    if message is None:
                        slots[k] = None
                        exit_code = worker.process.exitcode
                        if not worker.ready:
                            raise SimulationError(
                                f"worker failed to start (exit code {exit_code})"
                            )
                        if worker.job is not None:
                            settle(worker, ("err", SimulationError(
                                "worker died before returning a result "
                                f"(exit code {exit_code})"
                            )))
                    elif not worker.ready:
                        worker.ready = True
                    else:
                        settle(worker, message)
                now = monotonic()
                for k, worker in enumerate(slots):
                    if (
                        worker is None
                        or worker.job is None
                        or worker.job[3] is None
                        or worker.job[3] > now
                        or worker.conn.poll()  # finished just in time
                    ):
                        continue
                    i, attempt = worker.job[:2]
                    worker.stop()
                    slots[k] = None
                    if running.get(i) is attempt:
                        ledger.emit(
                            "timeout", i, attempt=attempt.number,
                            budget_s=policy.timeout,
                        )
                        if log is not None:
                            # Name the cache key so the killed point is
                            # identifiable in the store.
                            log(
                                "sweep: killed timed-out worker running spec "
                                f"{specs[i].cache_key} (attempt "
                                f"{attempt.number}, budget {policy.timeout}s)"
                            )
                    settle(worker, ("err", PointTimeoutError(
                        f"point exceeded {policy.timeout}s "
                        f"(spec {specs[i].cache_key}; worker killed)"
                    )))
        finally:
            _shutdown([w for w in slots if w is not None])
        if ledger.error is not None:
            raise ledger.error
        return ledger.results


class ShardedExecutor(ProcessExecutor):
    """A :class:`ProcessExecutor` with ``shards``, on ``jobs`` workers
    (default: ``shards``). Requesting shards for a non-shardable cluster
    point (stateful balancer, fanout, hedging) is a configuration mistake
    to surface, not silently serialise: the point fails under the policy.
    """

    name = "sharded"

    def __init__(
        self, shards: int, jobs: Optional[int] = None, policy: Optional[FailurePolicy] = None
    ):
        if shards <= 0:
            raise ConfigurationError(f"shards must be positive, got {shards}")
        super().__init__(shards if jobs is None else jobs, policy)
        self.shards = shards


ExecutorLike = Union[SerialExecutor, ProcessExecutor]

_EXECUTORS: Dict[str, Callable[..., ExecutorLike]] = {
    "serial": lambda jobs=None, policy=None: SerialExecutor(policy),
    "process": lambda jobs=None, policy=None: ProcessExecutor(jobs or 4, policy),
}


def _make_executor(
    executor: Union[str, ExecutorLike],
    jobs: Optional[int],
    policy: Optional[FailurePolicy] = None,
) -> ExecutorLike:
    if isinstance(executor, str):
        if executor not in _EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; choose from {sorted(_EXECUTORS)}"
            )
        return _EXECUTORS[executor](jobs=jobs, policy=policy)
    return executor


class SweepRunner:
    """Execute scenario specs with memoisation, persistence and hooks.

    Args:
        executor: ``"serial"``, ``"process"``, or an executor instance.
        jobs: worker count for the ``"process"`` executor.
        cache: memo dict keyed on :attr:`ScenarioSpec.cache_key`; defaults
            to the process-wide shared cache.
        progress: optional ``(done, total, spec)`` hook per settled point.
        log: optional sink for coarse lifecycle messages.
        store: optional persistent :class:`~repro.store.ResultStore`
            consulted on memo misses and updated with fresh results.
        policy: :class:`FailurePolicy` for string-named executors
            (ignored when ``executor`` is an instance, which carries its
            own policy).
        manifest: optional :class:`~repro.obs.manifest.RunManifest` —
            every sweep appends point-lifecycle JSONL events (claimed/
            finished/memo_hit/store_hit/retry/timeout/failed) to it.
            Forwarded to executors whose ``map_specs`` accepts a
            ``manifest`` keyword (custom executors without it still
            work; they just contribute no per-point events).
    """

    def __init__(
        self,
        executor: Union[str, ExecutorLike] = "serial",
        jobs: Optional[int] = None,
        cache: Optional[Dict[CacheKey, RunResult]] = None,
        progress: Optional[ProgressHook] = None,
        log: Optional[LogHook] = None,
        store=None,
        policy: Optional[FailurePolicy] = None,
        manifest: Optional["RunManifest"] = None,
    ):
        self.executor = _make_executor(executor, jobs, policy)
        self.cache = _SHARED_CACHE if cache is None else cache
        self.progress = progress
        self.log = log
        self.store = store
        self.manifest = manifest
        #: Terminal failures from the most recent run_many, by cache key.
        self.last_failures: Dict[CacheKey, PointFailure] = {}

    # -- public API --------------------------------------------------------
    def run(self, spec: ScenarioSpec) -> RunResult:
        """One point, memoised."""
        return self.run_many([spec])[0]

    def run_many(
        self, specs: Sequence[ScenarioSpec]
    ) -> List[Outcome]:
        """All points, memoised, order-preserving.

        Duplicate and already-cached specs are simulated at most once; the
        executor only ever sees the deduplicated misses that neither the
        memo cache nor the persistent store could answer.

        Under the default ``raise`` failure policy the returned list holds
        only :class:`RunResult` objects. Under ``skip`` a failed point's
        slot is ``None``; under ``record`` it is a :class:`PointFailure`
        (details for both are kept in :attr:`last_failures`).
        """
        specs = list(specs)
        self.last_failures = {}
        unique: Dict[CacheKey, ScenarioSpec] = {}
        first_index: Dict[CacheKey, int] = {}
        for i, spec in enumerate(specs):
            unique.setdefault(spec.cache_key, spec)
            first_index.setdefault(spec.cache_key, i)
        lines = _Ledger(specs, manifest=self.manifest)
        memo_hits = 0
        for key in unique:
            if key in self.cache:
                memo_hits += 1
                lines.emit("memo_hit", first_index[key])
        misses = [spec for key, spec in unique.items() if key not in self.cache]

        # The store is an accelerator, never a dependency: any I/O error
        # (full disk, locked/corrupt database) disables it for the rest of
        # this call and the sweep proceeds from simulation alone.
        store_ok = [self.store is not None]

        def store_call(op: Callable[[], object]) -> object:
            if not store_ok[0]:
                return None
            try:
                return op()
            except Exception as exc:  # sqlite3.Error, OSError, ...
                store_ok[0] = False
                if self.log is not None:
                    self.log(f"sweep: result store disabled ({exc})")
                return None

        store_hits = 0
        if store_ok[0] and misses:
            # Batch the lookup when the store supports it (one sqlite
            # connection for the whole grid instead of one per key).
            get_many = getattr(self.store, "get_many", None)
            if get_many is not None:
                found = store_call(
                    lambda: get_many([spec.cache_key for spec in misses])
                ) or {}
            else:
                found = {}
                for spec in misses:
                    stored = store_call(lambda: self.store.get(spec.cache_key))
                    if stored is not None:
                        found[spec.cache_key] = stored
            remaining: List[ScenarioSpec] = []
            for spec in misses:
                stored = found.get(spec.cache_key)
                if stored is None:
                    remaining.append(spec)
                else:
                    self.cache[spec.cache_key] = stored
                    store_hits += 1
                    lines.emit("store_hit", first_index[spec.cache_key])
            misses = remaining

        total = len(misses)
        if self.log is not None and specs:
            duplicates = len(specs) - len(unique)
            parts = [f"{total} to simulate", f"{memo_hits} memoised"]
            if self.store is not None:
                parts.append(f"{store_hits} from store")
            if duplicates:
                parts.append(f"{duplicates} duplicate")
            self.log(
                f"sweep: {len(specs)} points ({', '.join(parts)}) "
                f"via {self.executor.name}"
            )
        if self.manifest is not None and specs:
            self.manifest.emit(
                "sweep",
                points=len(specs),
                unique=len(unique),
                to_simulate=total,
                memo_hits=memo_hits,
                store_hits=store_hits,
                executor=getattr(
                    self.executor, "name", type(self.executor).__name__
                ),
            )
        note_hits = getattr(self.progress, "note_hits", None)
        if callable(note_hits):
            note_hits(memo_hits, store_hits)

        recorded: Dict[CacheKey, PointFailure] = {}
        if misses:
            settled = [0]
            # An executor that reads its results back out of this very
            # store (the distributed one) has them written there already.
            own = getattr(self.executor, "store", None)
            write_back = own is None or self.store is None or (
                Path(own.root).resolve() != Path(self.store.root).resolve()
            )
            # Fresh results are written back in batched transactions
            # (single connection + executemany) instead of one sqlite
            # round-trip per point. Flushing every STORE_FLUSH_CHUNK
            # results bounds what a hard kill can lose on a long sweep,
            # and the final flush sits in a ``finally`` so even an
            # aborting ``raise`` policy persists the results it banked
            # before propagating.
            pending_writes: List[tuple] = []

            def flush_writes() -> None:
                if not pending_writes:
                    return
                put_many = getattr(self.store, "put_many", None)
                if put_many is not None:
                    put_many(pending_writes)
                else:  # store-like test doubles without the batched API
                    for key, result, spec in pending_writes:
                        self.store.put(key, result, spec=spec)
                pending_writes.clear()

            def on_result(i: int, spec: ScenarioSpec, result: RunResult) -> None:
                self.cache[spec.cache_key] = result
                if store_ok[0] and write_back:
                    pending_writes.append((spec.cache_key, result, spec))
                    if len(pending_writes) >= STORE_FLUSH_CHUNK:
                        store_call(flush_writes)
                settled[0] += 1
                if self.progress is not None:
                    self.progress(settled[0], total, spec)

            def on_failure(i: int, spec: ScenarioSpec, failure: PointFailure) -> None:
                self.last_failures[spec.cache_key] = failure
                if self.log is not None:
                    self.log(
                        f"sweep: point failed after {failure.attempts} attempt(s) "
                        f"({failure.error})"
                    )
                settled[0] += 1
                if self.progress is not None:
                    self.progress(settled[0], total, spec)

            extra: Dict[str, object] = {}
            if self.manifest is not None:
                # Forward the manifest only to executors that take it, so
                # custom map_specs implementations keep working unchanged.
                try:
                    params = inspect.signature(
                        self.executor.map_specs
                    ).parameters
                except (TypeError, ValueError):  # builtins / C callables
                    params = {}
                if "manifest" in params:
                    extra["manifest"] = self.manifest
            try:
                outcomes = self.executor.map_specs(
                    misses, on_result, on_failure, log=self.log, **extra
                )
            finally:
                store_call(flush_writes)
            recorded = {
                spec.cache_key: outcome
                for spec, outcome in zip(misses, outcomes or ())
                if isinstance(outcome, PointFailure)
            }

        return [
            self.cache.get(spec.cache_key, recorded.get(spec.cache_key))
            for spec in specs
        ]

    def run_grid(
        self, grid: ScenarioGrid
    ) -> List[Outcome]:
        return self.run_many(list(grid))


# -- default runner ----------------------------------------------------------
# Registered experiments (repro.experiments.api) route every point through
# this process-wide runner, so configuring it (e.g. from `--jobs N` on the
# CLI) changes how the whole artifact pipeline executes.

_default_runner = SweepRunner()


def default_runner() -> SweepRunner:
    """The process-wide runner experiments use unless given one."""
    return _default_runner


def set_default_runner(runner: SweepRunner) -> SweepRunner:
    """Swap in a pre-built process-wide runner (returns it).

    The CLI uses this to restore the previous runner after a command, so
    flags like ``--cache-dir`` never leak into later programmatic use.
    """
    global _default_runner
    _default_runner = runner
    return runner


def configure_default_runner(
    executor: Union[str, ExecutorLike] = "serial",
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    log: Optional[LogHook] = None,
    store=None,
    policy: Optional[FailurePolicy] = None,
    manifest: Optional["RunManifest"] = None,
) -> SweepRunner:
    """Replace the process-wide runner (keeps the shared cache)."""
    return set_default_runner(
        SweepRunner(
            executor=executor, jobs=jobs, progress=progress, log=log,
            store=store, policy=policy, manifest=manifest,
        )
    )


#: Emission levels for :func:`result_record`: ``headline`` keeps the
#: scalar metrics only; ``residency`` adds the per-C-state residency and
#: transition-rate dicts; ``perf`` adds the engine perf counters
#: (events processed, heap high-water mark, events per request) so sweep
#: consumers can normalise wall time per unit of simulation work.
EMIT_LEVELS = ("headline", "residency", "perf")


def result_record(
    spec: ScenarioSpec, result: RunResult, emit: str = "headline"
) -> Dict[str, object]:
    """Flat JSON-safe record of one point: spec fields + run metrics.

    Raises:
        ConfigurationError: on an unknown ``emit`` level.
    """
    if emit not in EMIT_LEVELS:
        raise ConfigurationError(
            f"unknown emit level {emit!r}; choose from {list(EMIT_LEVELS)}"
        )
    # The spec is authoritative for identity fields: a registered alias
    # (e.g. a custom workload whose object reports a different name) must
    # round-trip as the key the user swept, not the simulator's label.
    record = spec.to_dict()
    for key, value in result.to_record(detail=(emit == "residency")).items():
        record.setdefault(key, value)
    if emit == "perf":
        record["events_processed"] = result.events_processed
        record["peak_pending_events"] = result.peak_pending_events
        record["events_per_request"] = result.events_per_request
    return record


def failure_record(spec: ScenarioSpec, failure: Optional[PointFailure]) -> Dict[str, object]:
    """Flat JSON-safe record of one failed point: spec fields + error."""
    record = spec.to_dict()
    record["error"] = failure.error if failure is not None else "point failed"
    record["attempts"] = failure.attempts if failure is not None else 0
    return record
