"""DistributedExecutor guarantees that local worker start-up must keep.

Local workers start with the platform's default start method (fork on
Linux), while external ``repro worker`` processes are bare
interpreters. These tests pin what keeps the two in step and what keeps
the coordinator's own databases sound across the fork.
"""

import multiprocessing

import pytest

from repro.distrib import DistributedExecutor
from repro.errors import ConfigurationError
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
    from repro.sweep.spec import GOVERNOR_FACTORIES, register_governor

    register_governor("parent_only_gov", MenuGovernor)
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
