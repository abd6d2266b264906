"""Tests for the scenario/sweep subsystem (repro.sweep)."""

import io
import json
import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.obs.manifest import RunManifest, spec_key
from repro.sweep import (
    FailurePolicy,
    PointFailure,
    ProcessExecutor,
    ScenarioGrid,
    ScenarioSpec,
    SerialExecutor,
    SweepRunner,
    result_record,
)

#: Dynamically-registered factories reach pool workers only when workers
#: inherit parent memory (fork); skip those tests elsewhere.
#: (The shared `failing_workload` fixture lives in tests/conftest.py.)
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs fork start method (workers must inherit test registrations)",
)


class _TwoArgError(Exception):
    """Pickles as ``(cls, (first,))``, so unpickling it raises TypeError."""

    def __init__(self, first, second):
        super().__init__(first)
        self.second = second


def _raise_unreadable():
    raise _TwoArgError("half", "lost")


def _events(stream, event):
    """The ``event`` rows a :class:`RunManifest` wrote to ``stream``."""
    rows = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [row for row in rows if row["event"] == event]


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.02, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_round_trip(self):
        spec = _spec(governor="menu", turbo=False, snoops=False)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.cache_key == spec.cache_key

    def test_cache_key_canonicalises_numeric_types(self):
        a = _spec(qps=100_000, cores=10, horizon=1, seed=42)
        b = _spec(qps=100_000.0, cores=10.0, horizon=1.0, seed=42.0)
        assert a.cache_key == b.cache_key
        assert a == b

    def test_cache_key_distinguishes_every_axis(self):
        base = _spec()
        variants = [
            _spec(workload="kafka"),
            _spec(config="AW"),
            _spec(qps=30_000),
            _spec(cores=4),
            _spec(horizon=0.05),
            _spec(seed=8),
            _spec(turbo=False),
            _spec(snoops=False),
        ]
        keys = {v.cache_key for v in variants}
        assert len(keys) == len(variants)
        assert base.cache_key not in keys

    def test_from_dict_rejects_unknown_fields(self):
        data = _spec().to_dict()
        data["typo"] = 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"workload": "memcached"})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(workload="postgres")

    def test_unknown_governor_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(governor="psychic")

    @pytest.mark.parametrize("field,value", [
        ("qps", 0), ("qps", -1), ("cores", 0), ("horizon", 0.0),
    ])
    def test_invalid_numbers_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            _spec(**{field: value})

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ], ids=str)
    @pytest.mark.parametrize("field", [
        "qps", "horizon", "hedge_ms", "telemetry_hz",
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        overrides = {field: value}
        if field == "hedge_ms":
            overrides.update(nodes=2)
        with pytest.raises(ConfigurationError, match=field):
            _spec(**overrides)
        with pytest.raises(ConfigurationError, match=field):
            ScenarioSpec.from_dict({**_spec(nodes=2).to_dict(), **overrides})

    def test_turbo_override_applies(self):
        on = _spec(config="NT_Baseline", turbo=True).build_configuration()
        off = _spec(config="baseline", turbo=False).build_configuration()
        default = _spec(config="baseline").build_configuration()
        assert on.turbo_enabled
        assert not off.turbo_enabled
        assert default.turbo_enabled

    def test_with_returns_modified_copy(self):
        spec = _spec()
        other = spec.with_(seed=99)
        assert other.seed == 99
        assert spec.seed == 7

    def test_execute_matches_legacy_simulate(self):
        from repro.server import named_configuration, simulate
        from repro.workloads import memcached_workload

        spec = _spec()
        via_spec = spec.execute()
        legacy = simulate(
            memcached_workload(), named_configuration("baseline"),
            qps=spec.qps, cores=spec.cores, horizon=spec.horizon, seed=spec.seed,
        )
        assert via_spec.avg_core_power == legacy.avg_core_power
        assert via_spec.completed == legacy.completed
        assert via_spec.residency == legacy.residency


class TestScenarioGrid:
    def test_product_order_and_length(self):
        grid = ScenarioGrid.product(
            workload=["memcached", "kafka"],
            config=["baseline", "AW"],
            qps=[1_000, 2_000],
            seed=[1],
        )
        assert len(grid) == 8
        # workload outermost, qps innermost of the varied axes
        assert [s.workload for s in grid][:4] == ["memcached"] * 4
        assert [s.qps for s in grid][:4] == [1_000, 2_000, 1_000, 2_000]

    def test_product_requires_qps(self):
        with pytest.raises(ConfigurationError):
            ScenarioGrid.product(config=["baseline"])

    def test_dict_round_trip(self):
        grid = ScenarioGrid.product(qps=[1_000, 2_000], seed=[1, 2])
        rebuilt = ScenarioGrid.from_dicts([spec.to_dict() for spec in grid])
        assert list(rebuilt) == list(grid)

    def test_concatenation(self):
        a = ScenarioGrid.product(qps=[1_000])
        b = ScenarioGrid.product(qps=[2_000])
        assert [s.qps for s in a + b] == [1_000.0, 2_000.0]


class TestSweepRunner:
    def test_serial_vs_parallel_parity(self):
        grid = ScenarioGrid.product(
            config=["baseline", "AW"], qps=[10_000, 40_000],
            horizon=[0.02], seed=[7],
        )
        serial = SweepRunner(cache={}).run_many(grid)
        parallel = SweepRunner(executor=ProcessExecutor(jobs=2), cache={}).run_many(grid)
        for s, p in zip(serial, parallel):
            assert s.avg_core_power == p.avg_core_power
            assert s.completed == p.completed
            assert s.residency == p.residency
            assert s.server_latency.p99 == p.server_latency.p99

    def test_memoisation_shares_points_across_calls(self):
        simulated = []
        runner = SweepRunner(cache={}, progress=lambda d, t, s: simulated.append(s))
        spec = _spec()
        first = runner.run(spec)
        second = runner.run(spec)
        assert first is second
        assert len(simulated) == 1

    def test_duplicates_simulated_once(self):
        simulated = []
        runner = SweepRunner(cache={}, progress=lambda d, t, s: simulated.append(s))
        spec = _spec()
        results = runner.run_many([spec, spec, spec])
        assert len(results) == 3
        assert len(simulated) == 1
        assert results[0] is results[1] is results[2]

    def test_progress_hook_counts(self):
        events = []
        runner = SweepRunner(cache={}, progress=lambda d, t, s: events.append((d, t)))
        runner.run_many([_spec(seed=1), _spec(seed=2)])
        assert events == [(1, 2), (2, 2)]

    def test_log_hook_reports_cache_state(self):
        # The manifest's per-batch ``sweep`` line is the cache report.
        stream = io.StringIO()
        runner = SweepRunner(cache={}, manifest=RunManifest(stream))
        runner.run(_spec())
        runner.run(_spec())
        first, second = _events(stream, "sweep")
        assert first["to_simulate"] == 1
        assert second["to_simulate"] == 0
        assert second["memo_hits"] == 1
        assert first["executor"] == second["executor"] == "serial"

    def test_log_hook_counts_duplicates_separately(self):
        # Duplicate uncached specs must not be reported as cache hits.
        stream = io.StringIO()
        runner = SweepRunner(cache={}, manifest=RunManifest(stream))
        a, b = _spec(seed=1), _spec(seed=2)
        runner.run_many([a, a, a, b])
        runner.run_many([a, a, b])
        first, second = _events(stream, "sweep")
        assert first["points"] == 4
        assert first["unique"] == 2  # 2 duplicates
        assert first["to_simulate"] == 2
        assert first["memo_hits"] == 0
        assert second["points"] == 3
        assert second["unique"] == 2  # 1 duplicate
        assert second["to_simulate"] == 0
        assert second["memo_hits"] == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(jobs=0)

    def test_empty_sweep(self):
        assert SweepRunner(cache={}).run_many([]) == []

    def test_worker_errors_propagate(self):
        # Corrupt a spec dict so the worker-side rebuild fails.
        import repro.sweep.runner as runner_mod

        with pytest.raises(ConfigurationError):
            runner_mod._execute_spec_dict({"workload": "memcached"})

    def test_result_record_is_json_safe(self):
        import json

        spec = _spec()
        record = result_record(spec, SweepRunner().run(spec))
        text = json.dumps(record)
        assert "avg_core_power" in text
        assert record["workload"] == "memcached"
        assert record["completed"] > 0


class TestFailurePolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="explode")
        with pytest.raises(ConfigurationError):
            FailurePolicy(timeout=0)
        with pytest.raises(ConfigurationError):
            FailurePolicy(retries=-1)

    def test_serial_raise_is_default(self, failing_workload):
        runner = SweepRunner(cache={})
        with pytest.raises(RuntimeError, match="kaboom"):
            runner.run(_spec(workload=failing_workload))

    def test_serial_raise_keeps_completed_results(self, failing_workload):
        good, bad = _spec(), _spec(workload=failing_workload)
        runner = SweepRunner(cache={})
        with pytest.raises(RuntimeError):
            runner.run_many([good, bad])
        # the point that finished before the failure is cached
        assert good.cache_key in runner.cache

    def test_serial_skip_drops_failed_point(self, failing_workload):
        good, bad = _spec(), _spec(workload=failing_workload)
        runner = SweepRunner(executor=SerialExecutor(FailurePolicy(mode="skip")), cache={})
        results = runner.run_many([good, bad, good])
        assert results[0].completed > 0
        assert results[1] is None
        assert results[2] is results[0]
        assert bad.cache_key in runner.last_failures
        assert "kaboom" in runner.last_failures[bad.cache_key].error

    def test_serial_record_returns_point_failure(self, failing_workload):
        bad = _spec(workload=failing_workload)
        runner = SweepRunner(
            executor=SerialExecutor(FailurePolicy(mode="record", retries=2)),
            cache={},
        )
        results = runner.run_many([bad])
        assert isinstance(results[0], PointFailure)
        assert results[0].attempts == 3  # 1 try + 2 retries
        assert "kaboom" in results[0].error

    def test_failures_are_not_cached(self, failing_workload):
        bad = _spec(workload=failing_workload)
        runner = SweepRunner(executor=SerialExecutor(FailurePolicy(mode="skip")), cache={})
        runner.run_many([bad])
        assert bad.cache_key not in runner.cache

    def test_progress_counts_failures(self, failing_workload):
        events = []
        runner = SweepRunner(
            executor=SerialExecutor(FailurePolicy(mode="skip")),
            cache={},
            progress=lambda d, t, s: events.append((d, t)),
        )
        runner.run_many([_spec(seed=1), _spec(workload=failing_workload)])
        assert events == [(1, 2), (2, 2)]

    @fork_only
    def test_process_skip_completes_remaining_points(self, failing_workload):
        good_a, bad, good_b = _spec(seed=1), _spec(workload=failing_workload), _spec(seed=2)
        runner = SweepRunner(
            executor=ProcessExecutor(2, FailurePolicy(mode="skip")),
            cache={},
        )
        results = runner.run_many([good_a, bad, good_b])
        assert results[0].completed > 0
        assert results[1] is None
        assert results[2].completed > 0
        assert len(runner.last_failures) == 1

    @fork_only
    def test_process_record_with_retries(self, failing_workload):
        bad = _spec(workload=failing_workload)
        runner = SweepRunner(
            executor=ProcessExecutor(2, FailurePolicy(mode="record", retries=1)),
            cache={},
        )
        results = runner.run_many([bad, _spec(seed=3)])
        assert isinstance(results[0], PointFailure)
        assert results[0].attempts == 2
        assert results[1].completed > 0

    @fork_only
    def test_process_raise_delivers_completed_results(self, failing_workload):
        # One worker processes sequentially, so the good point completes
        # (and must be cached) before the bad one aborts the sweep.
        good, bad = _spec(seed=4), _spec(workload=failing_workload)
        runner = SweepRunner(executor=ProcessExecutor(jobs=1), cache={})
        with pytest.raises(RuntimeError, match="kaboom"):
            runner.run_many([good, bad])
        assert good.cache_key in runner.cache

    @fork_only
    def test_process_timeout_is_a_failure(self):
        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        def sleepy():
            import time

            time.sleep(1.5)
            return memcached_workload()

        WORKLOAD_FACTORIES["sleepy"] = sleepy
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(2, FailurePolicy(mode="record", timeout=0.2)),
                cache={},
            )
            results = runner.run_many([_spec(workload="sleepy"), _spec(seed=5)])
            assert isinstance(results[0], PointFailure)
            assert "TimeoutError" in results[0].error
            assert results[1].completed > 0
        finally:
            del WORKLOAD_FACTORIES["sleepy"]

    @fork_only
    def test_timeout_budget_excludes_queue_wait(self):
        # jobs=1, a ~3s hog with a 0.5s budget, then a fast point: the
        # hog must time out but the fast point — which waits for the
        # occupied worker before it is ever submitted — must succeed.
        # Its budget may not tick while the hog holds the only worker.
        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        def hog():
            import time

            time.sleep(3.0)
            return memcached_workload()

        WORKLOAD_FACTORIES["hog"] = hog
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(1, FailurePolicy(mode="record", timeout=0.5)),
                cache={},
            )
            results = runner.run_many(
                [_spec(workload="hog"), _spec(seed=6)]
            )
            assert isinstance(results[0], PointFailure)
            assert "TimeoutError" in results[0].error
            assert not isinstance(results[1], PointFailure)
            assert results[1].completed > 0
        finally:
            del WORKLOAD_FACTORIES["hog"]

    def test_timeout_error_is_a_repro_error(self):
        # cmd_sweep catches ReproError in raise mode; a timeout abort must
        # surface as a clean CLI error, not a raw TimeoutError traceback.
        from repro.errors import PointTimeoutError, ReproError

        assert issubclass(PointTimeoutError, ReproError)
        assert "TimeoutError" in PointTimeoutError.__name__

    @fork_only
    def test_single_spec_with_timeout_uses_the_pool(self):
        # The 1-point inline fast path cannot enforce a timeout, so it
        # must be bypassed when one is set.
        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        def sleepy():
            import time

            time.sleep(1.5)
            return memcached_workload()

        WORKLOAD_FACTORIES["sleepy1"] = sleepy
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(2, FailurePolicy(mode="record", timeout=0.2)),
                cache={},
            )
            results = runner.run_many([_spec(workload="sleepy1")])
            assert isinstance(results[0], PointFailure)
            assert "TimeoutError" in results[0].error
        finally:
            del WORKLOAD_FACTORIES["sleepy1"]

    @fork_only
    @pytest.mark.parametrize("retries", [0, 1])
    def test_hard_worker_death_fails_only_its_point(self, retries):
        # A worker that exits without a result (os._exit, an OOM kill)
        # fails its own point; the other workers' points complete.
        from repro.sweep.spec import WORKLOAD_FACTORIES

        def dying():
            import os

            os._exit(3)

        WORKLOAD_FACTORIES["dying"] = dying
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(2, FailurePolicy(mode="record", retries=retries)),
                cache={},
            )
            results = runner.run_many(
                [_spec(workload="dying")] + [_spec(seed=s) for s in range(30, 36)]
            )
            assert isinstance(results[0], PointFailure)
            assert "exit code 3" in results[0].error
            assert results[0].attempts == retries + 1
            assert all(r.completed > 0 for r in results[1:])
        finally:
            del WORKLOAD_FACTORIES["dying"]

    @fork_only
    def test_unreadable_worker_error_is_a_point_failure(self):
        # An exception that pickles in the worker but cannot be rebuilt
        # in the parent fails its point, not the sweep.
        from repro.sweep.spec import WORKLOAD_FACTORIES

        WORKLOAD_FACTORIES["unreadable"] = _raise_unreadable
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(2, FailurePolicy(mode="record")),
                cache={},
            )
            results = runner.run_many(
                [_spec(workload="unreadable")] + [_spec(seed=s) for s in (37, 38)]
            )
            assert isinstance(results[0], PointFailure)
            assert "unreadable worker result" in results[0].error
            assert all(r.completed > 0 for r in results[1:])
        finally:
            del WORKLOAD_FACTORIES["unreadable"]


class TestExecutorHygiene:
    def test_jobs_exceeding_points_is_clamped_and_logged(self, monkeypatch):
        # Eight workers asked for, two points to run: two workers start.
        import repro.sweep.runner as runner_mod

        started = []

        class CountedWorker(runner_mod._Worker):
            def __init__(self):
                super().__init__()
                started.append(self)

        monkeypatch.setattr(runner_mod, "_Worker", CountedWorker)
        stream = io.StringIO()
        runner = SweepRunner(
            executor=ProcessExecutor(jobs=8), cache={},
            manifest=RunManifest(stream),
        )
        results = runner.run_many([_spec(seed=11), _spec(seed=12)])
        assert all(r.completed > 0 for r in results)
        assert len(started) == 2
        (sweep,) = _events(stream, "sweep")
        assert sweep["executor"] == "process"
        assert sweep["to_simulate"] == 2
        assert len(_events(stream, "finished")) == 2

    @fork_only
    def test_abandoned_timeout_worker_logs_the_cache_key(self):
        # A timed-out point's worker is killed; the manifest's timeout
        # line must name the spec's cache key so the killed point is
        # identifiable (e.g. against the result store) afterwards.
        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        def sleepy():
            import time

            time.sleep(1.2)
            return memcached_workload()

        WORKLOAD_FACTORIES["sleepy_logged"] = sleepy
        stream = io.StringIO()
        try:
            runner = SweepRunner(
                executor=ProcessExecutor(
                    2, FailurePolicy(mode="record", timeout=0.2)
                ),
                cache={}, manifest=RunManifest(stream),
            )
            results = runner.run_many(
                [_spec(workload="sleepy_logged"), _spec(seed=15)]
            )
            assert isinstance(results[0], PointFailure)
            (timeout,) = _events(stream, "timeout")
            assert timeout["key"] == spec_key(_spec(workload="sleepy_logged"))
            assert "sleepy_logged" in timeout["key"]
            assert timeout["budget_s"] == 0.2
        finally:
            del WORKLOAD_FACTORIES["sleepy_logged"]


class TestKillablePool:
    """Every worker is an owned, terminate()-able process, so a
    FailurePolicy timeout bounds worker CPU — not just caller latency."""

    @fork_only
    def test_timed_out_big_point_is_killed_and_logged(self):
        # A 30 s hog with a tight budget and default settings: the sweep
        # must settle quickly — the worker is terminated, not left to
        # finish its sleep — and the manifest's timeout line must name
        # the spec's cache key.
        from time import monotonic

        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        def big_hog():
            import time

            time.sleep(30.0)
            return memcached_workload()

        WORKLOAD_FACTORIES["big_hog"] = big_hog
        stream = io.StringIO()
        try:
            executor = ProcessExecutor(
                jobs=2, policy=FailurePolicy(mode="record", timeout=0.3)
            )
            runner = SweepRunner(
                executor=executor, cache={}, manifest=RunManifest(stream)
            )
            start = monotonic()
            results = runner.run_many(
                [_spec(workload="big_hog"), _spec(seed=25)]
            )
            elapsed = monotonic() - start
            assert isinstance(results[0], PointFailure)
            assert "TimeoutError" in results[0].error
            assert "0.3s" in results[0].error
            assert results[1].completed > 0
            # Well under the hog's 30 s sleep: the kill actually landed.
            assert elapsed < 10.0
            (timeout,) = _events(stream, "timeout")
            assert timeout["key"] == spec_key(_spec(workload="big_hog"))
        finally:
            del WORKLOAD_FACTORIES["big_hog"]

    def test_killable_point_success_path_matches_serial(self):
        # With a generous budget every point finishes and its result
        # equals the serial run's.
        spec = _spec(seed=26)
        executor = ProcessExecutor(
            jobs=2, policy=FailurePolicy(mode="record", timeout=60.0)
        )
        results = SweepRunner(executor=executor, cache={}).run_many(
            [spec, _spec(seed=27)]
        )
        serial = SweepRunner(cache={}).run(spec)
        assert results[0].completed == serial.completed
        assert results[0].avg_core_power == serial.avg_core_power
        assert results[0].package_power == serial.package_power

    @fork_only
    def test_worker_crash_on_killable_path_is_a_point_failure(self, failing_workload):
        # A worker-side exception under a timeout is still a point failure.
        executor = ProcessExecutor(
            jobs=2, policy=FailurePolicy(mode="record", timeout=60.0)
        )
        results = SweepRunner(executor=executor, cache={}).run_many(
            [_spec(workload=failing_workload), _spec(seed=28)]
        )
        assert isinstance(results[0], PointFailure)
        assert "kaboom" in results[0].error
        assert results[1].completed > 0


class TestWorkerRegistryCheck:
    def test_dynamic_names_detected(self, failing_workload):
        from repro.sweep.runner import _check_worker_registries, find_unregistered

        specs = [_spec(workload=failing_workload), _spec()]
        assert find_unregistered(specs) == {"workload": [failing_workload]}
        with pytest.raises(ConfigurationError, match="import time"):
            _check_worker_registries(specs, start_method="spawn")
        # fork workers inherit the registration: no error
        _check_worker_registries(specs, start_method="fork")

    def test_dynamic_governor_detected(self):
        from repro.governor.idle import MenuGovernor
        from repro.sweep.runner import _check_worker_registries
        from repro.sweep.spec import GOVERNOR_FACTORIES

        GOVERNOR_FACTORIES["temp_gov"] = MenuGovernor
        try:
            spec = _spec(governor="temp_gov")
            with pytest.raises(ConfigurationError, match="temp_gov"):
                _check_worker_registries([spec], start_method="spawn")
        finally:
            del GOVERNOR_FACTORIES["temp_gov"]

    def test_dynamic_balancer_detected(self):
        from repro.cluster.balancer import (
            BALANCER_FACTORIES,
            RandomBalancer,
        )
        from repro.sweep.runner import _check_worker_registries

        BALANCER_FACTORIES["temp_bal"] = RandomBalancer
        try:
            spec = _spec(nodes=2, balancer="temp_bal")
            with pytest.raises(ConfigurationError, match="temp_bal"):
                _check_worker_registries([spec], start_method="spawn")
            # Single-node specs canonicalise the balancer to the
            # built-in default, so the name never reaches a worker.
            single = _spec(balancer="temp_bal")
            assert single.balancer == "random"
            _check_worker_registries([single], start_method="spawn")
        finally:
            del BALANCER_FACTORIES["temp_bal"]

    def test_import_time_names_pass_everywhere(self):
        from repro.sweep.runner import _check_worker_registries

        specs = [_spec(), _spec(governor="oracle"), _spec(governor="c1_only")]
        _check_worker_registries(specs, start_method="spawn")
        _check_worker_registries(specs, start_method="fork")

    def test_overridden_builtin_detected(self):
        # Re-registering a built-in name must be caught too: spawn workers
        # would silently fall back to the import-time factory.
        from repro.sweep.runner import _check_worker_registries, find_unregistered
        from repro.sweep.spec import WORKLOAD_FACTORIES
        from repro.workloads import memcached_workload

        original = WORKLOAD_FACTORIES["memcached"]
        WORKLOAD_FACTORIES["memcached"] = lambda: memcached_workload()
        try:
            assert find_unregistered([_spec()]) == {"workload": ["memcached"]}
            with pytest.raises(ConfigurationError, match="overridden"):
                _check_worker_registries([_spec()], start_method="spawn")
        finally:
            WORKLOAD_FACTORIES["memcached"] = original
        assert find_unregistered([_spec()]) == {}


class TestOracleGovernor:
    def test_oracle_registered_at_import_time(self):
        from repro.sweep.spec import GOVERNOR_FACTORIES, IMPORT_TIME_GOVERNORS

        assert "oracle" in GOVERNOR_FACTORIES
        assert "oracle" in IMPORT_TIME_GOVERNORS

    def test_oracle_spec_executes(self):
        result = SweepRunner(cache={}).run(_spec(governor="oracle"))
        assert result.completed > 0

    def test_governor_axis_changes_results(self):
        menu = SweepRunner(cache={}).run(_spec(config="NT_Baseline"))
        c1 = SweepRunner(cache={}).run(_spec(config="NT_Baseline", governor="c1_only"))
        assert c1.avg_core_power != menu.avg_core_power


class TestProgressRenderer:
    class _TtyBuffer:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

        def isatty(self):
            return True

    def test_tty_meter_blots_out_longer_previous_line(self):
        from repro.sweep import ProgressRenderer

        stream = self._TtyBuffer()
        renderer = ProgressRenderer(label="sweep", stream=stream)
        # Neutralise the rate/ETA tail: this test is about the padding
        # of the bar+description part, and the tail's length varies with
        # wall-clock timing.
        renderer._suffix = lambda done, total, now: ""
        long_spec = ScenarioSpec(
            workload="memcached", config="NT_Baseline", qps=1_000_000,
            horizon=0.02, seed=7,
        )
        short_spec = _spec()
        renderer(1, 3, long_spec)
        first = stream.chunks[-1]
        renderer(2, 3, short_spec)
        second = stream.chunks[-1]
        # the shorter line is space-padded to fully cover the longer one
        assert len(second) == len(first)
        assert second.endswith("  ")
        assert second.startswith("\r")
        # final tick terminates the line
        renderer(3, 3, short_spec)
        assert stream.chunks[-1] == "\n"

    def test_non_tty_prints_plain_lines(self):
        import io

        from repro.sweep import ProgressRenderer

        stream = io.StringIO()
        renderer = ProgressRenderer(label="run", stream=stream)
        renderer(1, 2, _spec())
        renderer(2, 2, _spec())
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == "run: [1/2] memcached/baseline @ 20K QPS"
        # The second line may carry a rate tail (wall-clock dependent).
        assert lines[1].startswith("run: [2/2] memcached/baseline @ 20K QPS")

    def test_rate_eta_and_hits_in_meter(self):
        import io

        from repro.sweep import ProgressRenderer

        stream = io.StringIO()
        renderer = ProgressRenderer(label="run", stream=stream)
        renderer.note_hits(3, 1)
        renderer._t0 = -10.0  # pretend the first point settled 10s ago
        renderer(1, 5, _spec())
        renderer(2, 5, _spec())
        line = stream.getvalue().splitlines()[-1]
        assert "pts/s" in line
        assert "ETA" in line
        assert "3 memo" in line and "1 store" in line
