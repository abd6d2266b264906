"""The coordinator side: :class:`DistributedExecutor`.

Slots in beside ``Serial``/``Process`` behind the same ``map_specs``
contract and settles points through the same ledger, but instead of
running points it runs a **supervision loop** over a
:class:`~repro.distrib.queue.JobQueue` and the ONE shared
:class:`~repro.store.ResultStore`:

1. enqueue the grid (idempotent — re-invoking over the same queue
   directory re-adopts done rows, in-flight leases and all);
2. optionally start N local worker processes with the platform's
   default start method, as ``ProcessExecutor`` does (external
   ``repro worker`` processes on other hosts join the same queue
   directory uninvited; the grid's registrations are checked as a bare
   interpreter would see them, so both kinds of worker can run it);
3. poll the store for arriving results, settling queue rows whose
   worker died between the store write and the commit, and requeueing
   done rows whose result this store lacks (a queue directory reused
   with another store);
4. recover expired leases — requeue with backoff, honour
   ``FailurePolicy.retries``, quarantine poison points that have killed
   :data:`~repro.distrib.queue.POISON_K` distinct workers;
5. periodically re-enqueue/heal rows that on-disk faults dropped or
   corrupted;
6. replace dead local workers while work remains (replacements never
   inherit a chaos plan — an injected fault fires once, recovery is
   what's under test).

Each step that changes the run reports through the sweep's run manifest
(``distributed``, ``requeued``, ``healed``, ``recovered``,
``workers_exited``); the coordinator has no other output.

The coordinator executes nothing itself, so losing it is cheap: kill it
at any point and the queue directory stays consistent; re-running the
same sweep resumes where the fleet left off, skipping store-hit points
without recomputation.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.distrib import chaos as chaos_mod
from repro.distrib.queue import DEFAULT_LEASE_S, DONE, JobQueue, job_key
from repro.distrib.worker import worker_main
from repro.errors import ConfigurationError, SimulationError
from repro.store import ResultStore
from repro.store.db import close_all
from repro.sweep.runner import (
    FailureHook,
    FailurePolicy,
    Outcome,
    ResultHook,
    _check_worker_registries,
    _Ledger,
)
from repro.sweep.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.manifest import RunManifest

#: How many supervision ticks between heal/re-enqueue repair passes.
#: Repairs scan every non-done row, so they run coarser than the poll.
REPAIR_EVERY_TICKS = 20

#: Replacement-worker budget, as a multiple of ``jobs``. A fleet whose
#: workers die instantly at startup (broken environment, not a per-point
#: fault) must not fork-bomb the host; once the budget is spent the
#: coordinator stops respawning and the ``max_wall_s`` backstop (or an
#: externally joined worker) decides the run.
MAX_RESPAWN_FACTOR = 10


class DistributedExecutor:
    """Fan a sweep out to lease-claiming worker processes (module docs).

    Args:
        queue_dir: the queue directory — the database, the per-worker
            manifests, and therefore the whole resumable state of the
            run live here. Reuse the same directory to resume.
        store_dir: root of the ONE shared result store (defaults to the
            user-level store); every worker must point at the same one,
            it is the channel results come back on.
        jobs: local worker processes to start (0 means none — workers
            are expected to join from elsewhere via ``repro worker``).
        policy: :class:`FailurePolicy`; ``retries`` bounds requeues of
            failing/lapsing points, ``mode`` decides whether a terminal
            failure raises or is recorded/skipped. ``timeout`` is not
            enforced per-point here — runaway points are bounded by
            lease expiry instead (the lease lapses, the point is
            requeued or quarantined, and the stuck worker's eventual
            result is ignored or harmlessly identical).
        lease_s: lease duration workers claim under; also the failure
            detection latency for a silently dead worker.
        poll_s: supervision loop tick. The loop also wakes as soon as a
            local worker exits, so a drained fleet settles at once.
        chaos_plans: optional ``{worker_slot: ChaosPlan}`` armed on the
            *initial* local workers (tests only); replacements start
            clean.
        max_wall_s: optional hard wall-clock bound on one ``map_specs``
            call — a backstop so an empty fleet with ``jobs=0`` cannot
            wait forever; raises :class:`SimulationError` when exceeded.
    """

    name = "distributed"

    def __init__(
        self,
        queue_dir: str,
        store_dir: Optional[str] = None,
        jobs: int = 3,
        policy: Optional[FailurePolicy] = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.1,
        chaos_plans: Optional[Dict[int, "chaos_mod.ChaosPlan"]] = None,
        max_wall_s: Optional[float] = None,
    ):
        if jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
        self.queue = JobQueue(queue_dir)
        self.store = ResultStore(store_dir)
        self.jobs = jobs
        self.policy = policy or FailurePolicy()
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.chaos_plans = dict(chaos_plans or {})
        self.max_wall_s = max_wall_s
        self._spawned = 0
        self._workers: List[multiprocessing.process.BaseProcess] = []

    # -- local worker fleet ------------------------------------------------
    def _spawn_worker(
        self, plan: Optional["chaos_mod.ChaosPlan"] = None
    ) -> multiprocessing.process.BaseProcess:
        """Start one local worker process.

        Local workers use the platform's default start method, like
        :class:`~repro.sweep.runner.ProcessExecutor` (fork on Linux, so
        a worker claims its first point without re-importing
        :mod:`repro`). External ``repro worker`` processes are bare
        interpreters; ``map_specs`` keeps the two in parity by checking
        the grid's registrations as ``spawn`` would see them. A chaos
        plan is armed through ``os.environ``, which the child inherits.
        """
        self._spawned += 1
        worker_id = f"{os.getpid()}-w{self._spawned}"
        process = multiprocessing.Process(
            target=worker_main,
            kwargs={
                "queue_dir": str(self.queue.root),
                "store_dir": str(self.store.root),
                "worker_id": worker_id,
                "lease_s": self.lease_s,
                "retries": self.policy.retries,
                "poll_s": min(self.poll_s, 0.2),
            },
            name=f"repro-worker-{worker_id}",
            daemon=False,  # workers must outlive a dying coordinator
        )
        env = plan.to_env() if plan is not None else {}
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        try:
            # The child opens the queue and store itself; it must not
            # inherit this process's open sqlite files (repro.store.db).
            close_all()
            process.start()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        self._workers.append(process)
        return process

    def _reap_and_respawn(self, manifest: Optional["RunManifest"]) -> None:
        """Drop exited workers and spawn clean replacements.

        Respawns are bounded by ``jobs * MAX_RESPAWN_FACTOR`` total
        spawns so a fleet that dies at startup cannot crash-loop.
        """
        before = len(self._workers)
        self._workers = [p for p in self._workers if p.is_alive()]
        died = before - len(self._workers)
        budget = self.jobs * MAX_RESPAWN_FACTOR
        while len(self._workers) < self.jobs and self._spawned < budget:
            self._spawn_worker(plan=None)
        if died and manifest is not None:
            manifest.emit(
                "workers_exited", count=died,
                respawn_budget_spent=self._spawned >= budget,
            )

    def _shutdown_workers(self) -> None:
        """SIGTERM the local fleet, then escalate on stragglers."""
        for process in self._workers:
            if process.is_alive() and process.pid:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + max(5.0, 2.0 * self.lease_s)
        for process in self._workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._workers = []

    # -- the supervision loop ----------------------------------------------
    def map_specs(
        self,
        specs: Sequence[ScenarioSpec],
        on_result: Optional[ResultHook] = None,
        on_failure: Optional[FailureHook] = None,
        manifest: Optional["RunManifest"] = None,
    ) -> List[Outcome]:
        # External workers are bare interpreters: fail fast on
        # parent-only registrations whatever the local start method.
        _check_worker_registries(specs, start_method="spawn")
        ledger = _Ledger(specs, self.policy, on_result, on_failure, manifest)
        # The runner dedups upstream, but keys map to index *lists* so a
        # direct caller with duplicate specs still gets every slot filled.
        waiting: Dict[str, Tuple[ScenarioSpec, List[int]]] = {}
        for i, spec in enumerate(specs):
            key = job_key(spec)
            if key in waiting:
                waiting[key][1].append(i)
            else:
                waiting[key] = (spec, [i])
        added = self.queue.enqueue([spec for spec, _ in waiting.values()])
        if manifest is not None:
            manifest.emit(
                "distributed",
                points=len(waiting),
                enqueued=added,
                adopted=len(waiting) - added,
                jobs=self.jobs,
                queue=str(self.queue.root),
            )

        def settle_result(key: str) -> None:
            spec, indices = waiting.pop(key)
            result = hits[spec.cache_key]
            # Close the queue row: covers the worker that died after
            # the store write but before its commit (and is a no-op on
            # rows already done).
            self.queue.complete(key, "coordinator")
            for i in indices:
                ledger.succeed(i, result)

        def settle_failure(key: str, record: Dict[str, object]) -> None:
            # Terminal already: the queue applied the retries.
            _, indices = waiting.pop(key)
            kind = record.get("kind", "error")
            error = str(record.get("error", "point failed"))
            ledger.terminal(
                indices, int(record.get("attempts", 0) or 0), error,
                SimulationError(f"distributed point failed ({kind}): {error}"),
                kind=kind,
            )
            if ledger.error is not None:
                raise ledger.error

        start = time.monotonic()
        tick = 0
        try:
            for slot in range(self.jobs):
                self._spawn_worker(plan=self.chaos_plans.get(slot))
            while waiting:
                # 1. Results arriving through the shared store. Row
                # states are read first: a worker writes the store
                # before it marks its row done, so a row that was
                # already done and still misses the store has no result
                # in this store and goes back to pending.
                states = self.queue.states()
                hits = self.store.get_many(
                    [spec.cache_key for spec, _ in waiting.values()]
                )
                if hits:
                    for key in [
                        k for k, (s, _) in waiting.items()
                        if s.cache_key in hits
                    ]:
                        settle_result(key)
                if not waiting:
                    break
                orphaned = [
                    spec for key, (spec, _) in waiting.items()
                    if states.get(key) == DONE
                ]
                requeued = self.queue.requeue_done(orphaned)
                if requeued and manifest is not None:
                    manifest.emit("requeued", rows=requeued)
                # 2. Terminal failures recorded in the queue. Before
                # settling, offer every failed row a heal: the
                # coordinator holds the authoritative specs, so a row
                # whose *payload* was corrupted on disk is repairable
                # and goes back to pending. Heal never touches rows
                # whose payload still parses — genuine point failures
                # settle normally.
                failures = self.queue.failures()
                terminal = [k for k in waiting if k in failures]
                if terminal:
                    healed = self.queue.heal(
                        [waiting[k][0] for k in terminal]
                    )
                    if healed:
                        if manifest is not None:
                            manifest.emit("healed", rows=healed)
                        # Settle only rows that were offered the heal: a
                        # row a worker failed since gets its offer next
                        # tick.
                        failures = self.queue.failures()
                        terminal = [k for k in terminal if k in failures]
                for key in terminal:
                    settle_failure(key, failures[key])
                if not waiting:
                    break
                # 3. Lease-expiry recovery.
                report = self.queue.recover_expired(retries=self.policy.retries)
                if report.total and manifest is not None:
                    manifest.emit(
                        "recovered",
                        requeued=len(report.requeued),
                        failed=len(report.failed),
                        quarantined=len(report.quarantined),
                    )
                # 4. Periodic repair of dropped/corrupted rows.
                tick += 1
                if tick % REPAIR_EVERY_TICKS == 0:
                    remaining = [spec for spec, _ in waiting.values()]
                    self.queue.enqueue(remaining)  # restores dropped rows
                    healed = self.queue.heal(remaining)
                    if healed and manifest is not None:
                        manifest.emit("healed", rows=healed)
                # 5. Local fleet supervision.
                self._reap_and_respawn(manifest)
                # 6. Wall-clock backstop.
                if (
                    self.max_wall_s is not None
                    and time.monotonic() - start > self.max_wall_s
                ):
                    raise SimulationError(
                        f"distributed sweep exceeded max_wall_s="
                        f"{self.max_wall_s}s with {len(waiting)} point(s) "
                        "outstanding"
                    )
                self._wait_tick()
        finally:
            self._shutdown_workers()
        return ledger.results

    def _wait_tick(self) -> None:
        """Sleep one ``poll_s`` tick, or less if a local worker exits."""
        sentinels = [p.sentinel for p in self._workers if p.is_alive()]
        if sentinels:
            multiprocessing.connection.wait(sentinels, timeout=self.poll_s)
        else:
            time.sleep(self.poll_s)

    def close(self) -> None:
        """Close the queue's and the store's database connections."""
        self.queue.close()
        self.store.close()

    def manifest_dir(self) -> Path:
        """Where the fleet's per-worker manifests land (for reports)."""
        return self.queue.manifest_dir()
