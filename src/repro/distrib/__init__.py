"""Fault-tolerant distributed sweep execution.

``repro.distrib`` is the step from "my laptop sweeps" to "thousand-point
grids finish over lunch on a fleet". It fans a sweep's deduplicated
:class:`~repro.sweep.spec.ScenarioSpec` points out to N independent
worker *processes* — possibly on other hosts sharing a filesystem —
against ONE shared :class:`~repro.store.ResultStore`, with crash
tolerance designed in rather than bolted on:

- :mod:`repro.distrib.queue` — a file/sqlite-backed :class:`JobQueue`
  (WAL mode, one long-lived connection per process and thread, the
  same :mod:`repro.store.db` policy as the result store) where points
  are claimed through **atomic time-limited leases**;
- :mod:`repro.distrib.worker` — the ``repro worker`` loop: claim a
  point, extend the lease as a heartbeat while simulating, write the
  result to the shared store, commit the job; SIGTERM finishes or
  releases the current lease; SIGKILL is recovered by lease expiry;
- :mod:`repro.distrib.coordinator` — the ``repro sweep --distributed``
  side: a :class:`DistributedExecutor` that enqueues the grid, starts
  local workers with the platform's default start method (refusing
  grids that a bare-interpreter remote worker could not run), performs
  **lease-expiry recovery** (requeue with
  attempt count incremented, exponential backoff with decorrelated
  jitter, :class:`~repro.sweep.runner.FailurePolicy` retries),
  quarantines **poison points** that kill K distinct workers, and
  supports killed-and-restarted resumable runs over the same queue dir;
- :mod:`repro.distrib.chaos` — the fault-injection harness the test
  suite drives: SIGKILL workers at randomized claim/compute/commit
  phases, freeze heartbeats, drop or corrupt queue rows.

Simulations stay deterministic functions of their spec, so every
surviving execution path — any interleaving of crashes, retries and
worker counts — converges to results bit-identical to a serial run.
"""

from repro.distrib.coordinator import DistributedExecutor
from repro.distrib.queue import JobQueue, job_key

__all__ = ["DistributedExecutor", "JobQueue", "job_key"]
