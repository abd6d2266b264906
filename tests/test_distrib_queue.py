"""Unit tests for the lease-based job queue (repro.distrib.queue)."""

import sqlite3

import pytest
from queue_faults import corrupt_rows, drop_rows

from repro.distrib import queue as queue_mod
from repro.distrib.queue import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    DONE,
    FAILED,
    LEASED,
    PENDING,
    JobQueue,
    backoff_s,
    job_key,
)
from repro.errors import ConfigurationError
from repro.sweep.spec import ScenarioSpec


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.02, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _grid(n):
    return [_spec(seed=i) for i in range(n)]


@pytest.fixture
def queue(tmp_path):
    return JobQueue(str(tmp_path / "queue"))


class TestEnqueue:
    def test_one_row_per_novel_spec(self, queue):
        assert queue.enqueue(_grid(4)) == 4
        assert len(queue) == 4
        assert queue.counts() == {
            PENDING: 4, LEASED: 0, DONE: 0, FAILED: 0,
        }

    def test_idempotent_reenqueue(self, queue):
        specs = _grid(3)
        assert queue.enqueue(specs) == 3
        assert queue.enqueue(specs) == 0
        assert len(queue) == 3

    def test_reenqueue_does_not_reset_done_or_leased(self, queue):
        specs = _grid(2)
        queue.enqueue(specs)
        job = queue.claim("w1")
        queue.complete(job.key, "w1")
        leased = queue.claim("w1")
        queue.enqueue(specs)  # resume re-adopts, never resets
        states = queue.states()
        assert states[job.key] == DONE
        assert states[leased.key] == LEASED

    def test_job_key_is_stable_across_instances(self):
        assert job_key(_spec(seed=1)) == job_key(_spec(seed=1))
        assert job_key(_spec(seed=1)) != job_key(_spec(seed=2))


class TestClaim:
    def test_claim_leases_and_counts_the_attempt(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", lease_s=30, now=100.0)
        assert job is not None
        assert job.attempt == 1
        assert job.lease_expires == 130.0
        assert queue.counts()[LEASED] == 1
        # The spec payload round-trips.
        assert ScenarioSpec.from_dict(job.spec) == _spec(seed=0)

    def test_no_double_claim(self, queue):
        queue.enqueue(_grid(2))
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first.key != second.key
        assert queue.claim("w3") is None

    def test_claim_is_oldest_first_stable(self, queue):
        queue.enqueue(_grid(3))
        keys = [queue.jobs()[i].key for i in range(3)]
        claimed = [queue.claim("w1").key for _ in range(3)]
        assert claimed == keys

    def test_backoff_gate_defers_claims(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", now=100.0)
        assert queue.fail(job.key, "w1", "boom", retries=2, now=101.0) == "requeued"
        # Not claimable before the backoff gate, claimable after.
        assert queue.claim("w2", now=101.0) is None
        later = queue.claim("w2", now=101.0 + BACKOFF_CAP_S)
        assert later is not None
        assert later.attempt == 2

    def test_nonpositive_lease_rejected(self, queue):
        with pytest.raises(ConfigurationError):
            queue.claim("w1", lease_s=0)


class TestLeaseProtocol:
    def test_heartbeat_extends_only_the_owner(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", lease_s=30, now=100.0)
        assert queue.heartbeat(job.key, "w1", lease_s=30, now=110.0)
        assert not queue.heartbeat(job.key, "imposter", lease_s=30, now=110.0)
        view = queue.jobs()[0]
        assert view.lease_expires == 140.0

    def test_complete_settles_the_row(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1")
        assert queue.complete(job.key, "w1")
        assert not queue.complete(job.key, "w1")  # idempotent: already done
        assert queue.counts()[DONE] == 1
        assert not queue.heartbeat(job.key, "w1")

    def test_release_refunds_the_attempt(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1")
        assert queue.release(job.key, "w1")
        again = queue.claim("w2")
        assert again.key == job.key
        assert again.attempt == 1  # a SIGTERM hand-back is not a failure

    def test_fail_exhausted_retries_is_terminal_and_structured(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1")
        assert queue.fail(job.key, "w1", "RuntimeError: kaboom", retries=0) == "failed"
        record = queue.failures()[job.key]
        assert record["kind"] == "error"
        assert record["attempts"] == 1
        assert "kaboom" in record["error"]

    def test_fail_after_lease_loss_reports_lost(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", lease_s=1, now=100.0)
        queue.recover_expired(retries=5, now=200.0)
        assert queue.fail(job.key, "w1", "late", retries=5) == "lost"


class TestRecovery:
    def test_lapsed_lease_requeues_with_backoff_and_blame(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", lease_s=1, now=100.0)
        report = queue.recover_expired(retries=3, now=102.0)
        assert report.requeued == [job.key]
        view = queue.jobs()[0]
        assert view.state == PENDING
        assert view.failed_workers == ("w1",)
        assert view.not_before > 102.0

    def test_unexpired_lease_left_alone(self, queue):
        queue.enqueue(_grid(1))
        queue.claim("w1", lease_s=100, now=100.0)
        report = queue.recover_expired(retries=3, now=101.0)
        assert report.total == 0
        assert queue.counts()[LEASED] == 1

    def test_retries_exhausted_is_terminal(self, queue):
        queue.enqueue(_grid(1))
        job = queue.claim("w1", lease_s=1, now=100.0)
        report = queue.recover_expired(retries=0, now=102.0)
        assert report.failed == [job.key]
        record = queue.failures()[job.key]
        assert record["kind"] == "lease_expired"
        assert record["workers"] == ["w1"]

    def test_poison_point_quarantined_after_k_distinct_workers(self, queue):
        queue.enqueue(_grid(1))
        now = 100.0
        for worker in ("w1", "w2", "w3"):
            job = queue.claim(worker, lease_s=1, now=now)
            assert job is not None, f"{worker} could not claim"
            now += 10.0
            report = queue.recover_expired(retries=99, poison_k=3, now=now)
            now += BACKOFF_CAP_S  # wait out the requeue backoff gate
        assert report.quarantined == [job.key]
        record = queue.failures()[job.key]
        assert record["kind"] == "poison"
        assert sorted(record["workers"]) == ["w1", "w2", "w3"]

    def test_same_worker_dying_repeatedly_is_not_poison(self, queue):
        queue.enqueue(_grid(1))
        now = 100.0
        for _ in range(4):
            job = queue.claim("w1", lease_s=1, now=now)
            now += 10.0
            report = queue.recover_expired(retries=99, poison_k=3, now=now)
            now += BACKOFF_CAP_S
        assert report.quarantined == []
        assert report.requeued == [job.key]


class TestFaults:
    def test_corrupt_row_fails_structured_and_claim_moves_on(self, queue):
        specs = _grid(2)
        queue.enqueue(specs)
        first_key = queue.jobs()[0].key
        assert corrupt_rows(queue, [first_key]) == 1
        job = queue.claim("w1")
        assert job is not None
        assert job.key != first_key  # the readable row was handed out
        record = queue.failures()[first_key]
        assert record["kind"] == "corrupt"

    def test_heal_restores_corrupt_rows(self, queue):
        specs = _grid(2)
        queue.enqueue(specs)
        first_key = queue.jobs()[0].key
        corrupt_rows(queue, [first_key])
        queue.claim("w1")  # trips over the corrupt row, quarantines it
        assert queue.heal(specs) == 1
        job = queue.claim("w2")
        assert job.key == first_key
        assert ScenarioSpec.from_dict(job.spec) in specs

    def test_heal_leaves_real_failures_terminal(self, queue):
        specs = _grid(1)
        queue.enqueue(specs)
        job = queue.claim("w1")
        queue.fail(job.key, "w1", "RuntimeError: kaboom", retries=0)
        assert queue.heal(specs) == 0
        assert queue.counts()[FAILED] == 1

    def test_dropped_rows_restored_by_reenqueue(self, queue):
        specs = _grid(3)
        queue.enqueue(specs)
        victim = queue.jobs()[1].key
        assert drop_rows(queue, [victim]) == 1
        assert len(queue) == 2
        assert queue.enqueue(specs) == 1  # only the dropped row comes back
        assert len(queue) == 3


class TestBackoff:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_s("k", 3, 0.0) == backoff_s("k", 3, 0.0)
        # Once the jitter window opens (attempt > 1), keys decorrelate.
        assert backoff_s("k", 3, 0.0) != backoff_s("k2", 3, 0.0)

    def test_first_retry_is_the_exponential_floor(self):
        assert backoff_s("any-key", 1, 0.0) == BACKOFF_BASE_S

    def test_bounded_by_base_and_cap(self):
        previous = 0.0
        for attempt in range(1, 12):
            delay = backoff_s("key", attempt, previous)
            assert BACKOFF_BASE_S <= delay <= BACKOFF_CAP_S
            previous = delay

    def test_decorrelated_growth_window(self):
        # With a previous delay, the draw lives in [base, 3 * previous].
        delay = backoff_s("key", 5, 2.0)
        assert BACKOFF_BASE_S <= delay <= 6.0


class TestDrainState:
    def test_drained_only_when_no_work_and_no_live_lease(self, queue):
        assert queue.is_drained()
        queue.enqueue(_grid(1))
        assert not queue.is_drained()
        job = queue.claim("w1", lease_s=10, now=100.0)
        assert not queue.is_drained(now=105.0)  # live lease is work
        assert queue.is_drained(now=200.0)  # expired lease is not
        queue.complete(job.key, "w1")
        assert queue.is_drained()

    def test_wal_database_on_disk(self, queue, tmp_path):
        queue.enqueue(_grid(1))
        conn = sqlite3.connect(str(queue.path))
        try:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        finally:
            conn.close()
        assert mode == "wal"

    def test_manifest_dir_lives_in_queue_root(self, queue):
        assert queue.manifest_dir().parent == queue.root


class TestClaimIndex:
    def _plan(self, path):
        conn = sqlite3.connect(str(path))
        try:
            rows = conn.execute(
                "EXPLAIN QUERY PLAN " + queue_mod._CLAIM_SQL, (PENDING, 0.0)
            ).fetchall()
        finally:
            conn.close()
        return " | ".join(row[-1] for row in rows)

    def test_claim_reads_the_index_without_a_sort(self, queue):
        plan = self._plan(queue.path)
        assert "USING INDEX jobs_claim" in plan
        assert "TEMP B-TREE" not in plan

    def test_existing_queue_directories_gain_the_index(self, tmp_path):
        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(str(root / queue_mod.DB_FILENAME))
        try:
            conn.execute(queue_mod._SCHEMA)
        finally:
            conn.close()
        assert "jobs_claim" not in self._plan(root / queue_mod.DB_FILENAME)
        JobQueue(str(root)).close()
        assert "USING INDEX jobs_claim" in self._plan(root / queue_mod.DB_FILENAME)

    def test_claim_order_is_oldest_first_then_by_key(self, queue):
        specs = _grid(6)
        queue.enqueue(specs)
        oldest = job_key(specs[3])
        conn = sqlite3.connect(str(queue.path))
        try:
            with conn:
                conn.execute("UPDATE jobs SET created_at = 200.0")
                conn.execute(
                    "UPDATE jobs SET created_at = 100.0 WHERE key = ?", (oldest,)
                )
        finally:
            conn.close()
        order = []
        while True:
            job = queue.claim("w1")
            if job is None:
                break
            order.append(job.key)
        rest = sorted(job_key(s) for s in specs if job_key(s) != oldest)
        assert order == [oldest] + rest
