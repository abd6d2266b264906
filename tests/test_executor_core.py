"""One executor core: shard jobs on the owned workers, one settle ledger.

``ShardedExecutor(S, jobs=J)`` is a ``ProcessExecutor`` that runs each
shardable cluster point as S node-range jobs on the same J killable
workers as every other point, and the point (not the shard) is what
settles. A distributed sweep reads its results back out of the runner's
own store, so the runner does not write them there a second time.
"""

import contextlib
import io
import json
import multiprocessing
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_specs import digest_result  # noqa: E402

from repro.cli import EXIT_OK, main
from repro.distrib import DistributedExecutor
from repro.obs.manifest import RunManifest, spec_key
from repro.store import ResultStore
from repro.sweep import (
    FailurePolicy,
    PointFailure,
    ProcessExecutor,
    ScenarioSpec,
    SerialExecutor,
    ShardedExecutor,
    SweepRunner,
    clear_shared_cache,
)
from repro.sweep import runner as runner_mod

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs fork start method (workers must inherit test registrations)",
)


def _cluster_spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=40_000,
        nodes=4, cores=2, horizon=0.01, seed=42, balancer="random",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _node_spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.01, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


@pytest.fixture
def started_workers(monkeypatch):
    """Counts the owned worker processes started while a test runs."""
    started = []
    original = runner_mod._Worker.__init__

    def counting_init(worker):
        started.append(worker)
        original(worker)

    monkeypatch.setattr(runner_mod._Worker, "__init__", counting_init)
    return started


@contextlib.contextmanager
def _slow_node_workload(name, seconds):
    """Register ``name`` as memcached whose nodes other than node 0
    sleep ``seconds`` while building: in a 2-shard point, the second
    shard hangs and the first does not."""
    from repro.sweep.spec import WORKLOAD_FACTORIES
    from repro.workloads import memcached_workload

    def factory(seed=100):
        if seed != 100:
            time.sleep(seconds)
        return memcached_workload(seed=seed)

    WORKLOAD_FACTORIES[name] = factory
    try:
        yield name
    finally:
        del WORKLOAD_FACTORIES[name]


class TestShardJobs:
    def test_sharded_points_match_serial_one_finished_line_each(
        self, started_workers
    ):
        specs = [
            _cluster_spec(),
            _cluster_spec(balancer="round_robin", seed=3),
            _cluster_spec(nodes=5, qps=50_000, sketch_error=0.01),
            _node_spec(),
        ]
        stream = io.StringIO()
        executor = ShardedExecutor(2, jobs=2)
        assert isinstance(executor, ProcessExecutor)
        sharded = executor.map_specs(specs, manifest=RunManifest(stream))
        assert len(started_workers) == 2
        serial = SerialExecutor().map_specs(specs)
        assert [digest_result(r) for r in sharded] == [
            digest_result(r) for r in serial
        ]
        rows = _lines(stream)
        for event in ("claimed", "finished"):
            keyed = sorted(row["key"] for row in rows if row["event"] == event)
            assert keyed == sorted(spec_key(spec) for spec in specs)

    def test_lone_sharded_point_still_uses_workers(self, started_workers):
        spec = _cluster_spec()
        result = ShardedExecutor(2).map_specs([spec])[0]
        assert len(started_workers) == 2
        assert digest_result(result) == digest_result(spec.execute())

    @fork_only
    def test_timed_out_shard_kills_its_worker_and_fails_its_point(self):
        with _slow_node_workload("slow_node", 30.0) as name:
            hog = _cluster_spec(workload=name, nodes=2)
            others = [_cluster_spec(seed=5), _node_spec(seed=9)]
            stream = io.StringIO()
            started = time.monotonic()
            results = ShardedExecutor(
                2, jobs=2, policy=FailurePolicy(mode="record", timeout=3.0),
            ).map_specs([hog] + others, manifest=RunManifest(stream))
            elapsed = time.monotonic() - started
        assert elapsed < 20.0  # the sleeping worker was killed, not awaited
        assert isinstance(results[0], PointFailure)
        assert "PointTimeoutError" in results[0].error
        for spec, result in zip(others, results[1:]):
            assert digest_result(result) == digest_result(spec.execute())
        rows = _lines(stream)
        timeouts = [row for row in rows if row["event"] == "timeout"]
        assert [row["key"] for row in timeouts] == [spec_key(hog)]
        failed = [row for row in rows if row["event"] == "failed"]
        assert [row["key"] for row in failed] == [spec_key(hog)]

    def test_cli_sharded_timed_sweep_matches_serial(self, tmp_path):
        axes = [
            "sweep", "--nodes", "4", "--balancer", "random",
            "--config", "baseline", "AW", "--kqps", "40",
            "--horizon", "0.01", "--no-cache",
        ]
        sharded, serial = tmp_path / "sharded.jsonl", tmp_path / "serial.jsonl"
        clear_shared_cache()
        assert main(axes + [
            "--shards", "2", "--jobs", "2", "--timeout", "60",
            "-o", str(sharded),
        ]) == EXIT_OK
        clear_shared_cache()
        assert main(axes + ["-o", str(serial)]) == EXIT_OK
        assert sharded.read_bytes() == serial.read_bytes()


class TestDistributedStoreWrites:
    def test_results_are_written_to_the_store_once(self, tmp_path, monkeypatch):
        writes = []
        put, put_many = ResultStore.put, ResultStore.put_many

        def counting_put(store, key, result, spec=None):
            writes.append(key)
            return put(store, key, result, spec=spec)

        def counting_put_many(store, rows):
            rows = list(rows)
            writes.extend(key for key, _, _ in rows)
            return put_many(store, rows)

        specs = [_node_spec(seed=seed) for seed in (1, 2, 3)]
        store = ResultStore(str(tmp_path / "store"))
        executor = DistributedExecutor(
            str(tmp_path / "queue"), store_dir=str(store.root), jobs=2,
            lease_s=5.0, poll_s=0.05, max_wall_s=60.0,
        )
        try:
            # Patched after the executor exists: its workers fork later
            # and count into their own copy, so only parent writes show.
            monkeypatch.setattr(ResultStore, "put", counting_put)
            monkeypatch.setattr(ResultStore, "put_many", counting_put_many)
            results = SweepRunner(
                executor=executor, store=store, cache={}
            ).run_many(specs)
            assert writes == []
            assert [digest_result(r) for r in results] == [
                digest_result(spec.execute()) for spec in specs
            ]
            stored = store.get_many([spec.cache_key for spec in specs])
            assert [digest_result(stored[spec.cache_key]) for spec in specs] == [
                digest_result(r) for r in results
            ]
        finally:
            executor.close()
            store.close()
