"""The ``repro worker`` loop: claim, heartbeat, simulate, commit.

A worker is one OS process pointed at a queue directory and a shared
:class:`~repro.store.ResultStore`. It loops::

    claim a pending row (atomic lease)  ->  parse the spec
    ->  short-circuit if the store already has the result
    ->  simulate (a heartbeat thread extends the lease meanwhile)
    ->  put the result in the shared store  ->  mark the row done

and appends lifecycle events (``worker_start``, ``claimed``,
``heartbeat``, ``finished``, ``store_hit``, ``failed``, ``retry``,
``released``, ``worker_exit``) to its own
:class:`~repro.obs.manifest.RunManifest` under the queue directory, so
``repro report --manifest`` can render the fleet afterwards.

Crash semantics:

- **SIGKILL / power loss** — nothing to do here: the worker simply
  stops heartbeating and the coordinator's lease-expiry recovery
  requeues its point.
- **SIGTERM** — cooperative drain: the current point is finished (or,
  if the signal lands before simulation starts, its lease is released
  with the attempt refunded) and the loop exits cleanly.
- **Lost lease** — a worker stalled past its lease keeps simulating,
  but completions are harmless: results are deterministic, the store
  write is an idempotent overwrite of identical bytes, and the queue's
  ``complete`` settles the row for whichever executor gets there first.

This module is a **worker entry point**: under the ``spawn`` start
method it is imported inside bare interpreters, so it must never import
parent-only modules (``argparse``, ``repro.cli``, ...) at import time
— ``repro lint``'s CONC004 enforces that. CLI flag parsing lives in
:mod:`repro.cli`, which calls :func:`worker_main` with plain arguments.
"""

from __future__ import annotations

import os
import platform
import signal
import threading
import time
from typing import Callable, Optional

from repro.distrib.chaos import ChaosPlan
from repro.distrib.queue import DEFAULT_LEASE_S, JobQueue
from repro.errors import ConfigurationError, describe
from repro.obs.manifest import RunManifest, spec_key
from repro.store import ResultStore
from repro.sweep.spec import ScenarioSpec

#: How often the heartbeat thread extends the lease, as a fraction of
#: the lease duration. 1/3 gives two chances to beat before expiry.
HEARTBEAT_FRACTION = 3.0


def default_worker_id() -> str:
    """Host/pid identity, unique across a filesystem-sharing fleet."""
    host = platform.node() or "host"
    return f"{host}-{os.getpid()}"


class _Heartbeat:
    """Background thread that extends the lease of the point in flight.

    The worker points it at a job key while simulating and clears it
    between points. A chaos-frozen heartbeat stops extending (the
    worker keeps simulating, oblivious) — exactly what a stalled NFS
    mount or a live-locked process looks like from the outside.
    """

    def __init__(
        self,
        queue: JobQueue,
        worker: str,
        lease_s: float,
        manifest: Optional[RunManifest],
        frozen: bool = False,
    ):
        self._queue = queue
        self._worker = worker
        self._lease_s = lease_s
        self._manifest = manifest
        self._frozen = frozen
        self._key: Optional[str] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop beating and wait out a heartbeat already in flight."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def watch(self, key: str) -> None:
        with self._lock:
            self._key = key

    def clear(self) -> None:
        with self._lock:
            self._key = None

    def _run(self) -> None:
        interval = max(0.05, self._lease_s / HEARTBEAT_FRACTION)
        while not self._stop.wait(interval):
            with self._lock:
                key = self._key
            if key is None or self._frozen:
                continue
            held = self._queue.heartbeat(key, self._worker, self._lease_s)
            if self._manifest is not None:
                self._manifest.emit("heartbeat", job=key[:12], held=held)


def worker_main(
    queue_dir: str,
    store_dir: Optional[str] = None,
    worker_id: Optional[str] = None,
    lease_s: float = DEFAULT_LEASE_S,
    retries: int = 0,
    poll_s: float = 0.2,
    drain: bool = True,
    max_points: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Run one worker until the queue drains (or SIGTERM). Returns 0.

    Args:
        queue_dir: the coordinator's queue directory.
        store_dir: the ONE shared result store all workers and the
            coordinator write to; defaults to the user-level store.
        worker_id: identity for leases and the manifest; defaults to
            :func:`default_worker_id`.
        lease_s: lease duration per claim; the heartbeat thread extends
            it every ``lease_s / 3`` seconds.
        retries: ``FailurePolicy.retries`` — how many times a failing
            point is requeued (with backoff) before going terminal.
        poll_s: idle sleep between claim attempts when the queue has
            rows that are not yet claimable (backoff gates, peers'
            leases).
        drain: exit once no pending rows remain and no unexpired lease
            is held by anyone; ``False`` keeps the worker parked for
            more work until SIGTERM (a long-lived fleet member).
        max_points: optional cap on points settled (tests).
        log: optional message sink.
    """
    worker_id = worker_id or default_worker_id()
    queue = JobQueue(queue_dir)
    store = ResultStore(store_dir)
    plan = ChaosPlan.from_env()
    manifest = RunManifest(
        str(queue.manifest_dir() / f"{worker_id}.jsonl"), worker=worker_id
    )

    stopping = threading.Event()

    def _on_sigterm(signum, frame):  # pragma: no cover - signal plumbing
        stopping.set()

    # Restore the previous handler on exit: when worker_main runs
    # inline (tests, embedding), leaving it installed would leak into
    # the host process — and into every child it later forks, where a
    # stale handler turns SIGTERM into a silent no-op.
    previous_handler: Optional[object] = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread (embedded use)
        pass

    beat = _Heartbeat(
        queue, worker_id, lease_s, manifest, frozen=plan.freeze_heartbeat
    )
    beat.start()
    claims = 0
    settled = 0
    manifest.emit(
        "worker_start",
        pid=os.getpid(),
        lease_s=lease_s,
        retries=retries,
        chaos=plan.armed,
    )
    if log is not None:
        log(f"worker {worker_id}: started on queue {queue_dir}")
    try:
        while not stopping.is_set():
            job = queue.claim(worker_id, lease_s)
            if job is None:
                if drain and queue.is_drained():
                    break
                if stopping.wait(poll_s):
                    break
                continue
            claims += 1
            plan.maybe_kill("claim", claims, worker_id)
            beat.watch(job.key)
            try:
                spec = ScenarioSpec.from_dict(job.spec)
            except (ConfigurationError, TypeError, ValueError) as exc:
                # JSON parsed but the payload is not a valid spec:
                # structurally corrupt, never retryable as-is. Fail it
                # with retries=-1 so it goes terminal immediately; the
                # coordinator's heal pass can restore and requeue.
                beat.clear()
                queue.fail(job.key, worker_id, describe(exc), retries=-1)
                manifest.emit(
                    "failed", job=job.key[:12], attempt=job.attempt,
                    error=describe(exc),
                )
                continue
            manifest.emit(
                "claimed",
                key=spec_key(spec),
                job=job.key[:12],
                attempt=job.attempt,
            )
            if stopping.is_set():
                # SIGTERM landed between claim and compute: hand the
                # lease back (attempt refunded) and exit cleanly.
                beat.clear()
                queue.release(job.key, worker_id)
                manifest.emit("released", key=spec_key(spec), job=job.key[:12])
                break
            cached = store.get(spec.cache_key)
            if cached is not None:
                beat.clear()
                queue.complete(job.key, worker_id)
                manifest.emit(
                    "store_hit", key=spec_key(spec), attempt=job.attempt
                )
                settled += 1
            else:
                plan.maybe_kill("compute", claims, worker_id)
                t0 = time.monotonic()
                try:
                    result = spec.execute()
                except Exception as exc:  # the point, not the worker, failed
                    beat.clear()
                    outcome = queue.fail(
                        job.key, worker_id, describe(exc), retries=retries
                    )
                    manifest.emit(
                        "retry" if outcome == "requeued" else "failed",
                        key=spec_key(spec),
                        attempt=job.attempt,
                        error=describe(exc),
                    )
                    continue
                store.put(spec.cache_key, result, spec=spec)
                plan.maybe_kill("commit", claims, worker_id)
                beat.clear()
                queue.complete(job.key, worker_id)
                manifest.emit(
                    "finished",
                    key=spec_key(spec),
                    attempt=job.attempt,
                    wall_s=round(time.monotonic() - t0, 6),
                )
                settled += 1
            if max_points is not None and settled >= max_points:
                break
    finally:
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGTERM, previous_handler)
            except (ValueError, TypeError):  # pragma: no cover
                pass
        beat.stop()
        queue.close()
        store.close()
        manifest.emit("worker_exit", claims=claims, settled=settled)
        manifest.close()
        if log is not None:
            log(
                f"worker {worker_id}: exiting "
                f"({settled} settled / {claims} claims)"
            )
    return 0
