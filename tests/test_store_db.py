"""Tests for the shared sqlite connection policy (repro.store.db).

The result store and the job queue keep one long-lived connection per
process and thread. These tests check that the policy survives a fork,
many threads on one object, and another process writing at the same
time, and that an open connection never pins a WAL snapshot.
"""

import multiprocessing
import os
import sqlite3
import sys
import threading
import time

import pytest

from repro.distrib.queue import DONE, JobQueue
from repro.store import ResultStore
from repro.store.db import Database, close_all
from repro.sweep.spec import ScenarioSpec


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.005, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture(scope="module")
def result():
    return _spec().execute()


class TestDatabase:
    def test_one_connection_per_thread(self, tmp_path):
        db = Database(tmp_path / "x.sqlite")
        main = db.connection()
        assert db.connection() is main
        seen = []
        thread = threading.Thread(target=lambda: seen.append(db.connection()))
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive()
        assert seen[0] is not main
        db.close()

    def test_close_then_reuse_reopens(self, tmp_path):
        db = Database(tmp_path / "x.sqlite")
        first = db.connection()
        db.close()
        with pytest.raises(sqlite3.ProgrammingError):
            first.execute("SELECT 1")
        with db.transaction() as conn:
            assert conn is not first
            conn.execute("CREATE TABLE t (x)")
        db.close()

    def test_transaction_rolls_back_on_error(self, tmp_path):
        db = Database(tmp_path / "x.sqlite")
        with db.transaction() as conn:
            conn.execute("CREATE TABLE t (x)")
        with pytest.raises(RuntimeError):
            with db.transaction(immediate=True) as conn:
                conn.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("abort")
        assert not db.connection().in_transaction
        assert db.connection().execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        db.close()


# -- fork ---------------------------------------------------------------------

def _child_put(store, spec, result):
    """Fork target: write through the parent's store object, then close."""
    store.put(spec.cache_key, result, spec=spec)
    store.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_child_writes_through_the_parents_store(tmp_path, result):
    store = ResultStore(tmp_path, salt="fork")
    before, in_child, after = _spec(seed=1), _spec(seed=2), _spec(seed=3)
    store.put(before.cache_key, result, spec=before)
    parent_conn = store._db.connection()
    child = multiprocessing.get_context("fork").Process(
        target=_child_put, args=(store, in_child, result)
    )
    child.start()
    child.join(60.0)
    assert child.exitcode == 0
    # The child's close() left the parent's connection open and working.
    assert store._db.connection() is parent_conn
    store.put(after.cache_key, result, spec=after)
    for spec in (before, in_child, after):
        assert store.get(spec.cache_key) is not None
    fresh = ResultStore(tmp_path, salt="fork")
    assert len(fresh) == 3
    fresh.close()
    store.close()


def _orphan_writer(path, ready, go, done):
    """Fork target: commit, outlive the parent, commit again."""
    db = Database(path)
    with db.transaction() as conn:
        conn.execute("INSERT INTO t VALUES (1)")
    ready.set()
    go.wait(30.0)
    with db.transaction() as conn:
        conn.execute("INSERT INTO t VALUES (2)")
    db.close()
    done.set()


def _dying_parent(path, ready, go, done):
    """Fork target: fork a writer the way the coordinator starts a local
    worker, then die with the database open, like a killed coordinator."""
    db = Database(path)
    db.connection().execute("SELECT COUNT(*) FROM t").fetchall()
    close_all()
    multiprocessing.get_context("fork").Process(
        target=_orphan_writer, args=(path, ready, go, done)
    ).start()
    db.connection().execute("SELECT COUNT(*) FROM t").fetchall()
    ready.wait(30.0)
    os._exit(0)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_child_forked_after_close_all_holds_its_own_locks(tmp_path):
    """A child forked after ``close_all`` holds real sqlite locks, so
    once its parent is gone, a process that opens and closes the
    database does not mistake itself for the last connection and delete
    the WAL the child is still committing to."""
    path = str(tmp_path / "x.sqlite")
    db = Database(path)
    with db.transaction() as conn:
        conn.execute("CREATE TABLE t (x)")
    db.close()
    ctx = multiprocessing.get_context("fork")
    ready, go, done = ctx.Event(), ctx.Event(), ctx.Event()
    parent = ctx.Process(target=_dying_parent, args=(path, ready, go, done))
    parent.start()
    # Not join(): the orphan inherited the parent's exit sentinel.
    deadline = time.monotonic() + 30.0
    while parent.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert parent.exitcode == 0
    try:
        probe = sqlite3.connect(path)
        probe.execute("SELECT COUNT(*) FROM t").fetchall()
        probe.close()
        assert os.path.exists(path + "-wal"), "a probe deleted the live WAL"
    finally:
        go.set()
    assert done.wait(30.0), "orphaned writer never finished"
    probe = sqlite3.connect(path)
    rows = probe.execute("SELECT x FROM t ORDER BY x").fetchall()
    probe.close()
    assert rows == [(1,), (2,)]


# -- threads ------------------------------------------------------------------

def test_threads_race_claims_heartbeats_and_completes(tmp_path):
    """More threads than cores on one queue: no lost update, no lock error."""
    queue = JobQueue(str(tmp_path / "queue"))
    specs = [_spec(seed=i) for i in range(60)]
    queue.enqueue(specs)
    claimers = 2 * (os.cpu_count() or 1) + 2
    claimed = []
    errors = []
    stop = threading.Event()
    deadline = time.monotonic() + 60.0

    def claim_loop(worker):
        try:
            while time.monotonic() < deadline:
                job = queue.claim(worker)
                if job is None:
                    return
                claimed.append(job.key)
                assert queue.heartbeat(job.key, worker)
                assert queue.complete(job.key, worker)
        except BaseException as exc:  # reported below, not swallowed
            errors.append(exc)

    def heartbeat_loop():
        try:
            while not stop.is_set():
                for key in list(claimed[-4:]):
                    queue.heartbeat(key, "racer")
                queue.counts()
        except BaseException as exc:
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=claim_loop, args=(f"w{i}",))
            for i in range(claimers)
        ]
        beaters = [threading.Thread(target=heartbeat_loop) for _ in range(2)]
        for thread in threads + beaters:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()) + 5.0)
        stop.set()
        for thread in beaters:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads + beaters)
    assert errors == []
    assert sorted(claimed) == sorted(set(claimed))  # no row claimed twice
    assert len(claimed) == len(specs)
    assert queue.counts()[DONE] == len(specs)
    queue.close()


# -- WAL snapshots ------------------------------------------------------------

def test_open_connections_pin_no_wal_snapshot(tmp_path, result):
    store = ResultStore(tmp_path / "store", salt="wal")
    queue = JobQueue(str(tmp_path / "queue"))
    specs = [_spec(seed=i) for i in range(4)]
    store.put_many([(s.cache_key, result, s) for s in specs])
    store.get(specs[0].cache_key)
    store.get_many([s.cache_key for s in specs])
    assert specs[1].cache_key in store
    len(store)
    store.db_bytes()
    queue.enqueue(specs)
    job = queue.claim("w1")
    queue.heartbeat(job.key, "w1")
    queue.complete(job.key, "w1")
    queue.counts()
    queue.jobs()
    queue.is_drained()
    # Both objects keep their connections open; a checkpoint from outside
    # must still copy and truncate the whole WAL.
    for path in (store.path, queue.path):
        other = sqlite3.connect(str(path))
        try:
            busy, _, _ = other.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        finally:
            other.close()
        assert busy == 0, path
    store.close()
    queue.close()


# -- two processes ------------------------------------------------------------

def _writer(store_dir, seconds):
    """Spawn target: commit small put_many batches for ``seconds``."""
    store = ResultStore(store_dir, salt="mp")
    result = _spec(seed=0).execute()
    end = time.monotonic() + seconds
    batch = 0
    while time.monotonic() < end:
        store.put_many(
            [(("writer", batch, i), result, None) for i in range(4)]
        )
        batch += 1
    store.close()


def test_get_many_hits_beside_another_processes_put_many(tmp_path, result):
    """A hit is a read then a ``last_access`` UPDATE; a writer in another
    process must make it wait, never fail with ``database is locked``."""
    store = ResultStore(tmp_path, salt="mp")
    keys = [("reader", i) for i in range(8)]
    store.put_many([(key, result, None) for key in keys])
    writer = multiprocessing.get_context("spawn").Process(
        target=_writer, args=(str(tmp_path), 3.0)
    )
    writer.start()
    try:
        lookups = 0
        while writer.is_alive() or lookups < 20:
            assert len(store.get_many(keys)) == len(keys)
            lookups += 1
    finally:
        writer.join(60.0)
    assert writer.exitcode == 0
    assert len(store) > len(keys)  # the writer's rows landed too
    store.close()
