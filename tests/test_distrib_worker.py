"""Tests for the worker loop (repro.distrib.worker) run inline."""

import json

import pytest

from repro.distrib.queue import DONE, FAILED, LEASED, JobQueue
from repro.distrib.worker import default_worker_id, worker_main
from repro.store import ResultStore
from repro.sweep.spec import ScenarioSpec


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.02, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _events(queue, worker_id):
    path = queue.manifest_dir() / f"{worker_id}.jsonl"
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture
def queue(tmp_path):
    return JobQueue(str(tmp_path / "queue"))


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def test_worker_drains_queue_and_commits_results(queue, store):
    specs = [_spec(seed=i, horizon=0.01) for i in range(3)]
    queue.enqueue(specs)
    rc = worker_main(
        str(queue.root), store_dir=str(store.root), worker_id="w-test",
        lease_s=30.0,
    )
    assert rc == 0
    assert queue.counts()[DONE] == 3
    for spec in specs:
        assert store.get(spec.cache_key) is not None
    events = _events(queue, "w-test")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "worker_start"
    assert kinds[-1] == "worker_exit"
    assert kinds.count("claimed") == 3
    assert kinds.count("finished") == 3
    assert events[-1]["settled"] == 3


def test_store_hit_short_circuits_simulation(queue, store):
    spec = _spec(horizon=0.01)
    store.put(spec.cache_key, spec.execute(), spec=spec)
    queue.enqueue([spec])
    worker_main(
        str(queue.root), store_dir=str(store.root), worker_id="w-hit"
    )
    assert queue.counts()[DONE] == 1
    kinds = [e["event"] for e in _events(queue, "w-hit")]
    assert "store_hit" in kinds
    assert "finished" not in kinds  # never re-simulated


def test_failing_point_retries_then_goes_terminal(queue, store, failing_workload):
    spec = _spec(workload="explosive")
    queue.enqueue([spec])
    worker_main(
        str(queue.root), store_dir=str(store.root), worker_id="w-boom",
        retries=1, poll_s=0.05,
    )
    assert queue.counts()[FAILED] == 1
    (record,) = queue.failures().values()
    assert record["kind"] == "error"
    assert record["attempts"] == 2  # initial try + one retry
    assert "kaboom" in record["error"]
    assert store.get(spec.cache_key) is None
    kinds = [e["event"] for e in _events(queue, "w-boom")]
    assert kinds.count("retry") == 1
    assert kinds.count("failed") == 1


def test_live_lease_of_a_peer_is_respected(queue, store):
    specs = [_spec(seed=i, horizon=0.01) for i in range(2)]
    queue.enqueue(specs)
    held = queue.claim("peer", lease_s=300.0)  # a healthy peer is on it
    worker_main(
        str(queue.root), store_dir=str(store.root), worker_id="w-polite",
        max_points=1, poll_s=0.05,
    )
    counts = queue.counts()
    assert counts[LEASED] == 1 and counts[DONE] == 1
    assert queue.states()[held.key] == LEASED  # untouched
    kinds = [e["event"] for e in _events(queue, "w-polite")]
    assert kinds.count("finished") == 1


def test_default_worker_id_embeds_pid():
    import os

    assert str(os.getpid()) in default_worker_id()


def test_inline_worker_restores_sigterm_handler(queue, store):
    """An inline worker_main must not leak its SIGTERM handler into the
    host process — forked children would inherit it and turn
    ``terminate()`` into a no-op."""
    import signal

    before = signal.getsignal(signal.SIGTERM)
    worker_main(str(queue.root), store_dir=str(store.root), worker_id="w-sig")
    assert signal.getsignal(signal.SIGTERM) is before
