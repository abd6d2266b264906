"""DistributedExecutor guarantees around worker start-up and queue reuse.

Local workers start with the platform's default start method (fork on
Linux), while external ``repro worker`` processes are bare
interpreters. These tests pin what keeps the two in step, what keeps
the coordinator's own databases sound across the fork, that a queue
directory reused with a fresh store still settles, and the run-manifest
lines the coordinator reports its repairs with.
"""

import io
import json
import multiprocessing

import pytest

from repro.distrib import DistributedExecutor
from repro.errors import ConfigurationError
from repro.obs.manifest import RunManifest
from repro.server.metrics import RunResult
from repro.store import db as db_mod
from repro.sweep.spec import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.005, seed=0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _events(stream, event):
    """The ``event`` rows a :class:`RunManifest` wrote to ``stream``."""
    rows = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [row for row in rows if row["event"] == event]


@pytest.fixture
def executor(tmp_path):
    executor = DistributedExecutor(
        str(tmp_path / "queue"), store_dir=str(tmp_path / "store"), jobs=2,
        lease_s=5.0, poll_s=0.05, max_wall_s=60.0,
    )
    yield executor
    executor.close()


def _assert_rejected_before_start(executor, specs, name):
    with pytest.raises(ConfigurationError, match=name):
        executor.map_specs(specs)
    assert executor._spawned == 0
    assert len(executor.queue) == 0


def test_parent_only_workload_is_rejected_before_any_worker(
    executor, failing_workload
):
    """A forked local worker would see the registration; an external
    worker would not, so the grid is refused for both."""
    specs = [_spec(workload=failing_workload), _spec()]
    _assert_rejected_before_start(executor, specs, failing_workload)


def test_parent_only_governor_is_rejected_before_any_worker(executor):
    from repro.governor.idle import MenuGovernor
    from repro.sweep.spec import GOVERNOR_FACTORIES

    GOVERNOR_FACTORIES["parent_only_gov"] = MenuGovernor
    try:
        specs = [_spec(governor="parent_only_gov")]
        _assert_rejected_before_start(executor, specs, "parent_only_gov")
    finally:
        del GOVERNOR_FACTORIES["parent_only_gov"]


def test_coordinator_databases_stay_usable_after_local_workers(
    executor, monkeypatch
):
    """Each local worker starts while this process holds no sqlite
    connection, and none used or closed the coordinator's."""
    open_at_start = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(process):
        open_at_start.append(sum(len(db._open) for db in db_mod._LIVE))
        start(process)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", recording_start
    )
    specs = [_spec(seed=seed) for seed in range(4)]
    results = executor.map_specs(specs)
    monkeypatch.undo()
    assert open_at_start and not any(open_at_start), open_at_start
    assert all(isinstance(result, RunResult) for result in results)
    hits = executor.store.get_many([spec.cache_key for spec in specs])
    assert set(hits) == {spec.cache_key for spec in specs}
    assert executor.store.db_bytes() > 0
    assert executor.queue.is_drained()
    assert executor.queue.counts()["done"] == len(specs)


def test_reused_queue_with_fresh_store_requeues_done_rows(tmp_path):
    """Rows a first run marked done have no result in a second run's
    fresh store; the coordinator must requeue them, not wait forever."""
    from repro.store.serialize import result_to_dict

    specs = [_spec(seed=seed) for seed in range(3)]
    queue_dir = str(tmp_path / "queue")
    first = DistributedExecutor(
        queue_dir, store_dir=str(tmp_path / "store_a"), jobs=2,
        lease_s=5.0, poll_s=0.05, max_wall_s=60.0,
    )
    try:
        first.map_specs(specs)
    finally:
        first.close()
    second = DistributedExecutor(
        queue_dir, store_dir=str(tmp_path / "store_b"), jobs=2,
        lease_s=5.0, poll_s=0.05, max_wall_s=30.0,
    )
    stream = io.StringIO()
    try:
        assert second.queue.counts()["done"] == len(specs)
        results = second.map_specs(specs, manifest=RunManifest(stream))
        assert second.queue.counts()["done"] == len(specs)
    finally:
        second.close()
    assert [result_to_dict(r) for r in results] == [
        result_to_dict(spec.execute()) for spec in specs
    ]
    requeued = _events(stream, "requeued")
    assert any(row["rows"] == 3 for row in requeued), requeued


def test_row_failed_after_the_heal_pass_is_not_settled_unhealed(tmp_path):
    """A worker can trip over a second corrupt row while the coordinator
    heals the first; that row must get its own heal, not be settled as
    a failure on the re-read that follows the heal."""
    import json
    import sqlite3

    from queue_faults import corrupt_rows
    from repro.distrib.queue import job_key
    from repro.sweep.runner import RECORD, FailurePolicy

    first, second = _spec(seed=0), _spec(seed=1)
    executor = DistributedExecutor(
        str(tmp_path / "queue"), store_dir=str(tmp_path / "store"), jobs=0,
        policy=FailurePolicy(mode=RECORD), poll_s=0.05, max_wall_s=30.0,
    )
    queue, store = executor.queue, executor.store
    queue.enqueue([first, second])
    corrupt_rows(queue, [job_key(first), job_key(second)])
    torn = {"kind": "corrupt", "error": "unreadable spec row", "attempts": 0}

    def mark_failed(spec):
        """What a worker's claim does on a row whose payload is torn."""
        conn = sqlite3.connect(str(queue.path), timeout=30.0)
        try:
            with conn:
                conn.execute(
                    "UPDATE jobs SET state = 'failed', error = ? WHERE key = ?",
                    (json.dumps(torn), job_key(spec)),
                )
        finally:
            conn.close()

    mark_failed(first)
    heal = queue.heal
    calls = []

    def heal_then_worker_trips(specs):
        healed = heal(specs)
        if not calls:
            # During the first heal pass, a worker fails the second row
            # and the fleet then computes both points into the store.
            mark_failed(second)
            for spec in (first, second):
                store.put(spec.cache_key, spec.execute(), spec=spec)
        calls.append([job_key(spec) for spec in specs])
        return healed

    queue.heal = heal_then_worker_trips
    try:
        results = executor.map_specs([first, second])
    finally:
        executor.close()
    assert calls[0] == [job_key(first)]
    assert all(isinstance(result, RunResult) for result in results), results


def test_healed_row_is_one_manifest_event(tmp_path):
    """A corrupt queue row the coordinator repairs is reported as one
    ``healed`` line, and its point still settles."""
    from queue_faults import corrupt_rows
    from repro.distrib.queue import job_key
    from repro.store.serialize import result_to_dict

    spec = _spec(seed=0)
    executor = DistributedExecutor(
        str(tmp_path / "queue"), store_dir=str(tmp_path / "store"), jobs=1,
        lease_s=5.0, poll_s=0.05, max_wall_s=60.0,
    )
    executor.queue.enqueue([spec])
    assert corrupt_rows(executor.queue, [job_key(spec)]) == 1
    stream = io.StringIO()
    try:
        (result,) = executor.map_specs([spec], manifest=RunManifest(stream))
    finally:
        executor.close()
    assert result_to_dict(result) == result_to_dict(spec.execute())
    assert [row["rows"] for row in _events(stream, "healed")] == [1]


def test_dead_local_worker_is_one_manifest_event(tmp_path):
    """A local worker that dies mid-point is reported as a
    ``workers_exited`` line and replaced; the replacement settles it."""
    from repro.distrib.chaos import ChaosPlan
    from repro.store.serialize import result_to_dict
    from repro.sweep.runner import RECORD, FailurePolicy

    spec = _spec(seed=0)
    executor = DistributedExecutor(
        str(tmp_path / "queue"), store_dir=str(tmp_path / "store"), jobs=1,
        policy=FailurePolicy(mode=RECORD, retries=2),
        lease_s=0.5, poll_s=0.05, max_wall_s=60.0,
        chaos_plans={0: ChaosPlan(kill_phase="compute")},
    )
    stream = io.StringIO()
    try:
        (result,) = executor.map_specs([spec], manifest=RunManifest(stream))
    finally:
        executor.close()
    assert result_to_dict(result) == result_to_dict(spec.execute())
    exited = _events(stream, "workers_exited")
    # The killed worker goes first; its replacement may be reaped too
    # once it drains the queue and exits, before the point settles.
    assert exited and exited[0]["count"] == 1, exited
    assert not any(row["respawn_budget_spent"] for row in exited), exited
