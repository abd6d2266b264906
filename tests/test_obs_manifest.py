"""Sweep run manifests: the append-only JSONL lifecycle stream."""

import contextlib
import io
import json
import multiprocessing

import pytest

from repro.obs.manifest import RunManifest, spec_key
from repro.obs.report import summarize_manifest
from repro.sweep import FailurePolicy, SweepRunner
from repro.sweep.spec import ScenarioSpec

#: Workers see test-registered workloads only when they inherit parent
#: memory (fork).
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs fork start method (workers must inherit test registrations)",
)


@contextlib.contextmanager
def _sleepy_workload(name, seconds):
    """Register ``name`` as memcached behind a ``seconds`` sleep."""
    from repro.sweep.spec import WORKLOAD_FACTORIES
    from repro.workloads import memcached_workload

    def factory():
        import time

        time.sleep(seconds)
        return memcached_workload()

    WORKLOAD_FACTORIES[name] = factory
    try:
        yield name
    finally:
        del WORKLOAD_FACTORIES[name]


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.02, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestRunManifest:
    def test_emits_flushed_jsonl_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with RunManifest(str(path), worker="w1") as manifest:
            manifest.emit("claimed", point=0, attempt=1)
            manifest.emit("finished", point=0, wall_s=0.5)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["event"] for row in rows] == ["claimed", "finished"]
        for row in rows:
            assert row["worker"] == "w1"
            assert row["t"] >= 0
            assert row["wall"] > 0
        assert rows[0]["t"] <= rows[1]["t"]

    def test_append_mode_preserves_previous_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for attempt in (1, 2):
            with RunManifest(str(path)) as manifest:
                manifest.emit("sweep", attempt=attempt)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["attempt"] for row in rows] == [1, 2]

    def test_reserved_keys_cannot_be_overridden(self):
        stream = io.StringIO()
        manifest = RunManifest(stream)
        manifest.emit("claimed", **{"worker": "spoofed", "t": -1})
        row = _lines(stream)[0]
        assert row["event"] == "claimed"
        assert row["worker"] == "main"
        assert row["t"] >= 0

    def test_wrapped_stream_not_closed(self):
        stream = io.StringIO()
        with RunManifest(stream) as manifest:
            manifest.emit("sweep")
        assert not stream.closed
        manifest.emit("late")  # closed manifest: silently dropped
        assert len(_lines(stream)) == 1

    def test_spec_key_is_the_cache_key(self):
        spec = _spec()
        assert spec_key(spec) == repr(tuple(spec.cache_key))


class TestRunnerIntegration:
    def _run(self, specs, stream=None, **runner_kwargs):
        stream = stream if stream is not None else io.StringIO()
        manifest = RunManifest(stream)
        runner = SweepRunner(manifest=manifest, cache={}, **runner_kwargs)
        results = runner.run_many(specs)
        return results, _lines(stream)

    def test_lifecycle_events_for_a_sweep(self):
        specs = [_spec(), _spec(qps=30_000), _spec()]  # one duplicate
        results, rows = self._run(specs)
        assert all(r is not None for r in results)
        events = [row["event"] for row in rows]
        assert events[0] == "sweep"
        assert events.count("claimed") == 2  # unique points only
        assert events.count("finished") == 2
        summary = rows[0]
        assert summary["points"] == 3
        assert summary["unique"] == 2  # in-sweep duplicates dedupe silently

    def test_finished_carries_wall_time_and_throughput(self):
        _, rows = self._run([_spec()])
        finished = [row for row in rows if row["event"] == "finished"][0]
        assert finished["wall_s"] > 0
        assert finished["events_per_s"] > 0
        assert finished["key"] == spec_key(_spec())
        assert finished["attempt"] == 1

    def test_memo_hit_on_repeat_run_many(self):
        stream = io.StringIO()
        manifest = RunManifest(stream)
        runner = SweepRunner(manifest=manifest, cache={})
        runner.run_many([_spec()])
        runner.run_many([_spec()])
        events = [row["event"] for row in _lines(stream)]
        assert events.count("finished") == 1
        assert events.count("memo_hit") == 1

    def test_retry_and_failed_events(self, failing_workload):
        specs = [_spec(workload=failing_workload)]
        _, rows = self._run(
            specs, policy=FailurePolicy(mode="skip", retries=1)
        )
        events = [row["event"] for row in rows]
        assert events.count("retry") == 1
        assert events.count("failed") == 1
        failed = [row for row in rows if row["event"] == "failed"][0]
        assert "kaboom" in failed["error"]

    @fork_only
    def test_process_wall_s_excludes_queue_wait(self):
        # One worker, three 0.3 s points: each finished row times only
        # its own point, not the points queued ahead of it.
        with _sleepy_workload("sleepy_wall", 0.3) as name:
            _, rows = self._run(
                [_spec(workload=name, seed=s) for s in (1, 2, 3)],
                executor="process", jobs=1,
            )
        finished = [row for row in rows if row["event"] == "finished"]
        assert len(finished) == 3
        assert all(row["wall_s"] < 0.6 for row in finished)

    @fork_only
    def test_timeout_is_one_event(self):
        with _sleepy_workload("sleepy_budget", 30.0) as name:
            hog = _spec(workload=name)
            results, rows = self._run(
                [hog, _spec(seed=2)],
                executor="process", jobs=2,
                policy=FailurePolicy(mode="record", timeout=0.3),
            )
        assert results[1] is not None
        timeouts = [row for row in rows if row["event"] == "timeout"]
        assert len(timeouts) == 1
        assert timeouts[0]["budget_s"] == 0.3
        assert timeouts[0]["key"] == spec_key(hog)
        assert "killed" not in [row["event"] for row in rows]

    def test_custom_executor_without_manifest_param_still_works(self):
        class BareExecutor:
            def map_specs(self, specs, on_result, on_failure, log=None):
                for i, spec in enumerate(specs):
                    on_result(i, spec, spec.execute())

        stream = io.StringIO()
        manifest = RunManifest(stream)
        runner = SweepRunner(executor=BareExecutor(), manifest=manifest, cache={})
        results = runner.run_many([_spec()])
        assert results[0] is not None
        events = [row["event"] for row in _lines(stream)]
        # the sweep summary still lands; per-point events need executor support
        assert "sweep" in events


class TestSummarize:
    def test_summary_counts_and_rates(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        stream = io.StringIO()
        manifest = RunManifest(stream)
        runner = SweepRunner(manifest=manifest, cache={})
        runner.run_many([_spec(), _spec(qps=40_000)])
        runner.run_many([_spec()])  # memo hit on the repeat call
        path.write_text(stream.getvalue() + "{truncated\n")
        summary = summarize_manifest(str(path))
        assert summary["counts"]["finished"] == 2
        assert summary["counts"]["memo_hit"] == 1
        assert summary["workers"] == ["main"]
        assert summary["finished_wall_s"] > 0
        assert summary["mean_events_per_s"] > 0
        assert summary["malformed_lines"] == 1


class TestTailSummary:
    """Crash-tolerant reading of a dead worker's manifest file."""

    def _write_events(self, path, events):
        with RunManifest(str(path), worker="w7") as manifest:
            for event, fields in events:
                manifest.emit(event, **fields)

    def test_clean_file_summary(self, tmp_path):
        from repro.obs.manifest import tail_summary

        path = tmp_path / "w7.jsonl"
        self._write_events(path, [
            ("worker_start", {"pid": 1}),
            ("claimed", {"job": "abc"}),
            ("finished", {"job": "abc", "wall_s": 0.1}),
        ])
        summary = tail_summary(str(path))
        assert summary["worker"] == "w7"
        assert summary["events"] == 3
        assert summary["counts"] == {
            "worker_start": 1, "claimed": 1, "finished": 1,
        }
        assert summary["last_event"] == "finished"
        assert summary["torn_tail"] is False

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A SIGKILL mid-write leaves a half-flushed last line; the
        summary must keep everything before it and flag the tear."""
        from repro.obs.manifest import tail_summary

        path = tmp_path / "w7.jsonl"
        self._write_events(path, [
            ("worker_start", {"pid": 1}),
            ("claimed", {"job": "abc"}),
        ])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "finish')  # no newline: torn by SIGKILL
        summary = tail_summary(str(path))
        assert summary["torn_tail"] is True
        assert summary["events"] == 2  # well-formed prefix preserved
        assert summary["counts"] == {"worker_start": 1, "claimed": 1}
        assert summary["last_event"] == "claimed"

    def test_missing_file_is_a_tear_not_a_crash(self, tmp_path):
        from repro.obs.manifest import tail_summary

        summary = tail_summary(str(tmp_path / "never-written.jsonl"))
        assert summary["torn_tail"] is True
        assert summary["events"] == 0
        assert summary["counts"] == {}

    def test_binary_garbage_line_skipped(self, tmp_path):
        from repro.obs.manifest import tail_summary

        path = tmp_path / "w7.jsonl"
        self._write_events(path, [("worker_start", {"pid": 1})])
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff\xfe garbage \n")
        self._write_events(path, [("worker_exit", {"settled": 0})])
        summary = tail_summary(str(path))
        assert summary["torn_tail"] is True
        assert summary["events"] == 2
        assert summary["last_event"] == "worker_exit"
