"""Fault-injection e2e suite for the distributed executor.

The acceptance bar for ``repro.distrib``: every injected fault —
SIGKILL at each worker phase (claim / compute / commit), a frozen
heartbeat, dropped and corrupted queue rows, even losing the
coordinator itself — must converge to results **bit-identical** to a
serial run of the same specs, with every point settled exactly once
(one result or one structured failure record).

These tests spawn real OS processes; they are the slowest in the
suite but are the only place the crash-recovery machinery is exercised
end to end.
"""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_specs import digest_result  # noqa: E402
from queue_faults import corrupt_rows, drop_rows  # noqa: E402

from repro.distrib import DistributedExecutor, JobQueue  # noqa: E402
from repro.distrib.chaos import ChaosPlan  # noqa: E402
from repro.server.metrics import RunResult
from repro.store import ResultStore
from repro.sweep.runner import RECORD, FailurePolicy
from repro.sweep.spec import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _grid(n, horizon=0.005):
    return [
        ScenarioSpec(
            workload="memcached", config="baseline", qps=20_000,
            horizon=horizon, seed=seed,
        )
        for seed in range(n)
    ]


def _serial_digests(specs):
    return {spec.cache_key: digest_result(spec.execute()) for spec in specs}


def _finished_counts(queue):
    """Map manifest ``finished`` events to per-point counts."""
    counts = {}
    for path in sorted(queue.manifest_dir().glob("*.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn tail of a SIGKILLed worker
                if event.get("event") == "finished":
                    key = event["key"]
                    counts[key] = counts.get(key, 0) + 1
    return counts


def test_sigkill_at_every_phase_converges_to_serial(tmp_path):
    """The headline chaos run from the issue: a 3-worker sweep of a
    50-point grid with one worker SIGKILLed at each phase (and one of
    them also heartbeat-frozen until it dies) terminates, and every
    point's result is bit-identical to a serial run."""
    specs = _grid(50)
    expected = _serial_digests(specs)
    executor = DistributedExecutor(
        str(tmp_path / "queue"),
        store_dir=str(tmp_path / "store"),
        jobs=3,
        policy=FailurePolicy(mode=RECORD, retries=3),
        lease_s=2.0,
        poll_s=0.1,
        max_wall_s=180.0,
        chaos_plans={
            0: ChaosPlan(kill_phase="claim", kill_at=2),
            1: ChaosPlan(kill_phase="compute", kill_at=2),
            2: ChaosPlan(
                kill_phase="commit", kill_at=2, freeze_heartbeat=True
            ),
        },
    )
    results = executor.map_specs(specs)
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        assert isinstance(result, RunResult), f"{spec} -> {result!r}"
        assert digest_result(result) == expected[spec.cache_key]


def test_frozen_heartbeat_worker_does_not_corrupt_results(tmp_path):
    """A worker whose heartbeat freezes loses its lease mid-compute;
    the point is requeued onto a peer while the zombie keeps going.
    Both finish — determinism makes the double-compute harmless."""
    specs = _grid(4, horizon=2.0)  # slow points so leases lapse mid-run
    expected = _serial_digests(specs)
    executor = DistributedExecutor(
        str(tmp_path / "queue"),
        store_dir=str(tmp_path / "store"),
        jobs=2,
        policy=FailurePolicy(mode=RECORD, retries=5),
        lease_s=0.5,
        poll_s=0.1,
        max_wall_s=120.0,
        chaos_plans={0: ChaosPlan(freeze_heartbeat=True)},
    )
    results = executor.map_specs(specs)
    for spec, result in zip(specs, results):
        assert isinstance(result, RunResult)
        assert digest_result(result) == expected[spec.cache_key]


def test_dropped_and_corrupted_rows_are_repaired(tmp_path):
    """Rows torn out of (or scrambled inside) the queue database before
    the run starts are restored by the coordinator's repair pass."""
    specs = _grid(8)
    expected = _serial_digests(specs)
    queue = JobQueue(str(tmp_path / "queue"))
    queue.enqueue(specs)
    views = queue.jobs()
    assert drop_rows(queue, [views[0].key, views[1].key]) == 2
    assert corrupt_rows(queue, [views[2].key, views[3].key]) == 2
    executor = DistributedExecutor(
        str(tmp_path / "queue"),
        store_dir=str(tmp_path / "store"),
        jobs=2,
        policy=FailurePolicy(mode=RECORD, retries=3),
        lease_s=2.0,
        poll_s=0.1,
        max_wall_s=120.0,
    )
    results = executor.map_specs(specs)
    for spec, result in zip(specs, results):
        assert isinstance(result, RunResult)
        assert digest_result(result) == expected[spec.cache_key]


def _run_coordinator(queue_dir, store_dir, n):
    """Spawn target: run a distributed sweep to completion (or death)."""
    specs = _grid(n)
    executor = DistributedExecutor(
        queue_dir, store_dir=store_dir, jobs=2,
        policy=FailurePolicy(mode=RECORD, retries=2),
        lease_s=5.0, poll_s=0.1, max_wall_s=120.0,
    )
    executor.map_specs(specs)


def test_coordinator_killed_then_restarted_resumes(tmp_path):
    """SIGKILL the coordinator mid-sweep. Its workers (deliberately not
    daemons) keep draining the queue; a fresh coordinator over the same
    queue dir then settles everything from the store without
    recomputing a single point."""
    n = 16
    queue_dir = str(tmp_path / "queue")
    store_dir = str(tmp_path / "store")
    specs = _grid(n)
    store = ResultStore(store_dir)

    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(
        target=_run_coordinator, args=(queue_dir, store_dir, n), daemon=False
    )
    proc.start()
    # Let it make real progress, then pull the plug without warning.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if len(store.get_many([s.cache_key for s in specs])) >= 3:
            break
        time.sleep(0.1)
    else:
        pytest.fail("coordinator made no progress before the kill")
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(10.0)

    # Orphaned workers drain the queue on their own.
    queue = JobQueue(queue_dir)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and not queue.is_drained():
        time.sleep(0.2)
    assert queue.is_drained(), f"orphans never drained: {queue.counts()}"

    # A restarted coordinator over the same queue dir settles every
    # point from the store: nothing is recomputed, nothing runs twice.
    executor = DistributedExecutor(
        queue_dir, store_dir=store_dir, jobs=2,
        policy=FailurePolicy(mode=RECORD, retries=2),
        lease_s=5.0, poll_s=0.1, max_wall_s=60.0,
    )
    results = executor.map_specs(specs)
    expected = _serial_digests(specs)
    for spec, result in zip(specs, results):
        assert isinstance(result, RunResult)
        assert digest_result(result) == expected[spec.cache_key]
    finished = _finished_counts(queue)
    assert sum(finished.values()) == n, finished  # each point ran exactly once
    assert all(count == 1 for count in finished.values()), finished
