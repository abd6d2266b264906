"""Tests for the persistent result store (repro.store)."""

import io
import json
import os
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.obs.manifest import RunManifest
from repro.store import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    ResultStore,
    code_version_salt,
    decode_samples,
    encode_samples,
    result_from_dict,
    result_to_dict,
)
from repro.sweep import ProcessExecutor, ScenarioSpec, SweepRunner


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


@pytest.fixture(scope="module")
def result():
    return _spec().execute()


#: v2, v3 and v4 rows from the writer that named every field by hand,
#: with what its decoder returned (see the file's "_about").
with open(os.path.join(os.path.dirname(__file__), "store_rows.json")) as _f:
    STORE_ROWS = json.load(_f)

#: The codec's shape per FORMAT_VERSION: the keys a record carries, in
#: order, for an exact and for a sketch result; the RunResult fields a
#: record decodes into, and those an older row may omit (their dataclass
#: default fills in); and the formats the decoder accepts. A change to
#: any of them needs a FORMAT_VERSION bump and a new entry here.
CODEC_SHAPE = {
    4: {
        "exact_keys": [
            "format", "server_latency_samples", "config_name",
            "workload_name", "qps", "horizon", "cores", "residency",
            "transitions_per_second", "avg_core_power", "package_power",
            "completed", "turbo_grant_rate", "network_latency",
            "snoops_served", "node_detail", "hedges_issued",
            "events_processed", "peak_pending_events", "timeline",
        ],
        "sketch_keys": [
            "format", "server_latency_sketch", "config_name",
            "workload_name", "qps", "horizon", "cores", "residency",
            "transitions_per_second", "avg_core_power", "package_power",
            "completed", "turbo_grant_rate", "network_latency",
            "snoops_served", "node_detail", "hedges_issued",
            "events_processed", "peak_pending_events", "timeline",
        ],
        "decoded_fields": [
            "config_name", "workload_name", "qps", "horizon", "cores",
            "residency", "transitions_per_second", "avg_core_power",
            "package_power", "server_latency", "completed",
            "turbo_grant_rate", "network_latency", "snoops_served",
            "node_detail", "hedges_issued", "events_processed",
            "peak_pending_events", "timeline",
        ],
        "optional_keys": [
            "snoops_served", "node_detail", "hedges_issued",
            "events_processed", "peak_pending_events", "timeline",
        ],
        "supported_versions": [2, 3, 4],
    },
}


def _decoded_view(result):
    """A decoded result in the form of ``STORE_ROWS["decoded"]``."""
    view = {
        f.name: getattr(result, f.name)
        for f in fields(result) if f.name != "server_latency"
    }
    latency = result.server_latency
    view["latency"] = {
        "sketch_error": latency.sketch_error,
        "count": latency.count,
        "p50": latency.percentile(50),
        "p99": latency.percentile(99),
    }
    return view


class TestSerialize:
    def test_sample_blob_round_trip_is_exact(self):
        samples = [1.5e-6, 0.0, 3.141592653589793, 7.2e-5, 1e308]
        assert decode_samples(encode_samples(samples)) == samples

    def test_empty_samples(self):
        assert decode_samples(encode_samples([])) == []

    def test_result_round_trip_is_exact(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.avg_core_power == result.avg_core_power
        assert rebuilt.package_power == result.package_power
        assert rebuilt.completed == result.completed
        assert rebuilt.residency == result.residency
        assert rebuilt.transitions_per_second == result.transitions_per_second
        assert rebuilt.server_latency.mean == result.server_latency.mean
        assert rebuilt.server_latency.p99 == result.server_latency.p99
        assert rebuilt.server_latency.percentile(37.5) == (
            result.server_latency.percentile(37.5)
        )
        assert rebuilt.turbo_grant_rate == result.turbo_grant_rate
        assert rebuilt.snoops_served == result.snoops_served

    def test_record_is_json_safe(self, result):
        text = json.dumps(result_to_dict(result))
        rebuilt = result_from_dict(json.loads(text))
        assert rebuilt.avg_latency == result.avg_latency

    def test_foreign_format_rejected(self, result):
        data = result_to_dict(result)
        data["format"] = 999
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    def test_missing_field_rejected(self, result):
        data = result_to_dict(result)
        del data["avg_core_power"]
        with pytest.raises(ConfigurationError):
            result_from_dict(data)


class TestSketchSerialization:
    """Codec v3: sketch-backed latency round-trips its bucket state."""

    @pytest.fixture(scope="class")
    def sketch_results(self):
        return [
            _spec(seed=seed, sketch_error=0.01).execute() for seed in (7, 8)
        ]

    def test_record_carries_sketch_not_samples(self, sketch_results):
        data = result_to_dict(sketch_results[0])
        assert data["format"] == FORMAT_VERSION
        assert "server_latency_sketch" in data
        assert "server_latency_samples" not in data

    def test_sketch_round_trip_is_exact(self, sketch_results):
        original = sketch_results[0]
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(original)))
        )
        assert rebuilt.server_latency.sketch_error == 0.01
        assert rebuilt.server_latency.sketch.to_state() == (
            original.server_latency.sketch.to_state()
        )
        for p in (50, 99, 99.9):
            assert rebuilt.server_latency.percentile(p) == (
                original.server_latency.percentile(p)
            )
        assert rebuilt.completed == original.completed

    def test_merge_after_decode_equals_merge_before_encode(
        self, sketch_results
    ):
        from repro.simkit.stats import PercentileTracker

        a, b = sketch_results
        before = PercentileTracker.merge_all(
            [a.server_latency, b.server_latency]
        )
        decoded = [
            result_from_dict(result_to_dict(r)).server_latency
            for r in (a, b)
        ]
        after = PercentileTracker.merge_all(decoded)
        assert after.sketch.to_state() == before.sketch.to_state()

    def test_v2_row_with_raw_samples_still_decodes(self):
        # A pre-sketch row: format marker 2, exact sample blob, and no
        # timeline key (the v2 writer had none).
        data = STORE_ROWS["rows"]["v2"]
        assert data["format"] == 2 and "timeline" not in data
        rebuilt = result_from_dict(data)
        assert rebuilt.server_latency.sketch_error is None
        assert rebuilt.timeline is None
        assert rebuilt.completed == STORE_ROWS["decoded"]["v2"]["completed"]

    def test_v1_format_rejected(self, result):
        data = result_to_dict(result)
        data["format"] = 1
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    def test_corrupt_sketch_state_is_a_miss(self, sketch_results):
        data = result_to_dict(sketch_results[0])
        data["server_latency_sketch"] = {"relative_error": 0.01}
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    def test_store_round_trip_sketch_result(self, tmp_path, sketch_results):
        original = sketch_results[0]
        spec = _spec(sketch_error=0.01)
        store = ResultStore(tmp_path, salt="s1")
        store.put(spec.cache_key, original, spec=spec)
        loaded = store.get(spec.cache_key)
        assert loaded is not None
        assert loaded.server_latency.sketch.to_state() == (
            original.server_latency.sketch.to_state()
        )

    def test_sketch_and_exact_specs_have_distinct_cache_keys(self):
        exact, sketched = _spec(), _spec(sketch_error=0.01)
        assert exact.cache_key != sketched.cache_key
        # Exact mode keeps the pre-sketch key shape (store compatible).
        assert len(exact.cache_key) + 1 == len(sketched.cache_key)


class TestCodecShape:
    def test_shape_is_pinned_for_this_format_version(self, result):
        assert FORMAT_VERSION in CODEC_SHAPE, (
            f"codec format {FORMAT_VERSION} has no pinned shape: add one"
        )
        shape = CODEC_SHAPE[FORMAT_VERSION]
        sketch = _spec(sketch_error=0.01).execute()
        assert list(result_to_dict(result)) == shape["exact_keys"]
        assert list(result_to_dict(sketch)) == shape["sketch_keys"]
        decoded = result_from_dict(result_to_dict(result))
        assert [f.name for f in fields(decoded)] == shape["decoded_fields"]
        optional = []
        for key in shape["exact_keys"]:
            row = result_to_dict(result)
            del row[key]
            try:
                result_from_dict(row)
            except ConfigurationError:
                continue
            optional.append(key)
        assert optional == shape["optional_keys"]
        assert list(SUPPORTED_VERSIONS) == shape["supported_versions"]

    @pytest.mark.parametrize("version", ["v2", "v3", "v4"])
    def test_older_writer_row_decodes_to_its_values(self, version):
        decoded = result_from_dict(STORE_ROWS["rows"][version])
        assert _decoded_view(decoded) == STORE_ROWS["decoded"][version]

    def test_current_format_row_reencodes_byte_identically(self):
        row = STORE_ROWS["rows"]["v4"]
        assert json.dumps(result_to_dict(result_from_dict(row))) == json.dumps(row)


class TestUntrustedRows:
    """Malformed rows raise ConfigurationError, which the store reads as
    a miss; any other exception would abort the sweep."""

    @pytest.mark.parametrize("data", [[1], "x", None, 4, []])
    def test_non_object_row(self, data):
        with pytest.raises(ConfigurationError, match="JSON object"):
            result_from_dict(data)

    @pytest.mark.parametrize("blob", [5, None, ["AAAA"], {"a": 1}])
    def test_non_string_sample_blob(self, result, blob):
        data = result_to_dict(result)
        data["server_latency_samples"] = blob
        with pytest.raises(ConfigurationError, match="server_latency_samples"):
            result_from_dict(data)

    def test_invalid_base64_sample_blob(self, result):
        data = result_to_dict(result)
        data["server_latency_samples"] = "not base64!"
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("qps", "abc"),
        ("qps", None),
        ("completed", None),
        ("completed", 1.5),
        ("completed", True),
        ("cores", "4"),
        ("config_name", 3),
        ("residency", [1]),
        ("transitions_per_second", None),
        ("node_detail", {"node": 0}),
        ("timeline", [1.0]),
        ("snoops_served", "3"),
    ])
    def test_wrongly_typed_field(self, result, name, value):
        data = result_to_dict(result)
        data[name] = value
        with pytest.raises(ConfigurationError, match=repr(name)):
            result_from_dict(data)

    def test_integral_float_field_accepts_a_json_integer(self, result):
        data = json.loads(json.dumps(result_to_dict(result)))
        data["qps"] = 20000
        assert result_from_dict(data).qps == 20000

    @pytest.mark.parametrize(
        "payload", ["[1]", '"x"', "null", '{"format": 4}', b"\xff"]
    )
    def test_store_reads_a_malformed_row_as_a_miss(self, tmp_path, result, payload):
        import sqlite3

        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        store.put(spec.cache_key, result)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET result = ?", (payload,))
        assert store.get(spec.cache_key) is None
        assert store.total_records() == 0

    def test_get_many_reads_a_malformed_row_as_a_miss(self, tmp_path, result):
        import sqlite3

        store = ResultStore(tmp_path, salt="s1")
        good, bad, worse = _spec(seed=1), _spec(seed=2), _spec(seed=3)
        for spec in (good, bad, worse):
            store.put(spec.cache_key, result)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "UPDATE results SET result = '[1]' WHERE digest = ?",
                (store._digest(bad.cache_key),),
            )
            conn.execute(
                "UPDATE results SET result = ? WHERE digest = ?",
                (b"\xff", store._digest(worse.cache_key)),
            )
        found = store.get_many([good.cache_key, bad.cache_key, worse.cache_key])
        assert set(found) == {good.cache_key}
        assert store.total_records() == 1


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        assert store.get(spec.cache_key) is None
        store.put(spec.cache_key, result, spec=spec)
        loaded = store.get(spec.cache_key)
        assert loaded is not None
        assert loaded.avg_core_power == result.avg_core_power
        assert loaded.server_latency.p99 == result.server_latency.p99
        assert spec.cache_key in store
        assert len(store) == 1

    def test_shared_across_instances(self, tmp_path, result):
        spec = _spec()
        ResultStore(tmp_path, salt="s1").put(spec.cache_key, result)
        other = ResultStore(tmp_path, salt="s1")
        assert other.get(spec.cache_key).completed == result.completed

    def test_salt_invalidates(self, tmp_path, result):
        spec = _spec()
        ResultStore(tmp_path, salt="v1").put(spec.cache_key, result)
        assert ResultStore(tmp_path, salt="v2").get(spec.cache_key) is None
        # the v1 record is still on disk, just invisible under v2
        v2 = ResultStore(tmp_path, salt="v2")
        assert len(v2) == 0
        assert v2.total_records() == 1
        assert v2.prune_stale() == 1
        assert v2.total_records() == 0

    def test_delete_and_clear(self, tmp_path, result):
        store = ResultStore(tmp_path, salt="s1")
        a, b = _spec(), _spec(seed=8)
        store.put(a.cache_key, result)
        store.put(b.cache_key, result)
        store.delete(a.cache_key)
        assert store.get(a.cache_key) is None
        assert store.get(b.cache_key) is not None
        store.clear()
        assert len(store) == 0

    def test_corrupt_row_is_a_miss(self, tmp_path, result):
        import sqlite3

        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        store.put(spec.cache_key, result)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET result = 'not json'")
        assert store.get(spec.cache_key) is None
        # the corrupt row was dropped, not left to fail forever
        assert store.total_records() == 0

    def test_truncated_sample_blob_is_a_miss(self, tmp_path, result):
        # A blob whose payload is not a whole number of doubles raises
        # struct.error on unpack; it must read as a miss, not a crash.
        import base64
        import sqlite3
        import zlib

        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        store.put(spec.cache_key, result)
        bad_blob = base64.b64encode(zlib.compress(b"\x00" * 11)).decode()
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "UPDATE results SET result = json_set(result, "
                "'$.server_latency_samples', ?)",
                (bad_blob,),
            )
        assert store.get(spec.cache_key) is None

    def test_get_many_batches_hits_and_misses(self, tmp_path, result):
        store = ResultStore(tmp_path, salt="s1")
        a, b, missing = _spec(seed=1), _spec(seed=2), _spec(seed=3)
        store.put(a.cache_key, result)
        store.put(b.cache_key, result)
        found = store.get_many([a.cache_key, b.cache_key, missing.cache_key])
        assert set(found) == {a.cache_key, b.cache_key}
        assert found[a.cache_key].completed == result.completed
        # under a different salt nothing is visible
        assert ResultStore(tmp_path, salt="s2").get_many([a.cache_key]) == {}

    def test_code_version_salt_is_stable(self):
        salt = code_version_salt()
        assert salt == code_version_salt()
        assert len(salt) == 16
        int(salt, 16)  # hex

    def test_default_salt_is_code_version(self, tmp_path):
        assert ResultStore(tmp_path).salt == code_version_salt()


class TestRunnerIntegration:
    def test_round_trip_across_runner_instances(self, tmp_path):
        """Two runners with separate memo caches share via the store."""
        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        first = SweepRunner(cache={}, store=store).run(spec)

        simulated = []
        second_runner = SweepRunner(
            cache={}, store=store, progress=lambda d, t, s: simulated.append(s)
        )
        second = second_runner.run(spec)
        assert simulated == []  # nothing simulated: pure store hit
        assert second.avg_core_power == first.avg_core_power
        assert second.server_latency.p99 == first.server_latency.p99
        assert second.residency == first.residency

    def test_version_salt_forces_resimulation(self, tmp_path):
        spec = _spec()
        SweepRunner(cache={}, store=ResultStore(tmp_path, salt="v1")).run(spec)

        simulated = []
        runner = SweepRunner(
            cache={},
            store=ResultStore(tmp_path, salt="v2"),
            progress=lambda d, t, s: simulated.append(s),
        )
        runner.run(spec)
        assert len(simulated) == 1  # store miss under the new salt

    def test_broken_store_is_never_fatal(self):
        # A store that starts erroring mid-sweep (full disk, locked db)
        # must be dropped, not abort the run.
        class BrokenStore:
            def get_many(self, keys):
                raise OSError("disk on fire")

            def put_many(self, items):  # pragma: no cover
                raise AssertionError("a disabled store must not be written")

        stream = io.StringIO()
        runner = SweepRunner(
            cache={}, store=BrokenStore(), manifest=RunManifest(stream)
        )
        result = runner.run(_spec())
        assert result.completed > 0
        (disabled,) = _events(stream, "store_disabled")
        assert disabled["error"] == "OSError: disk on fire"

    def test_store_hits_logged(self, tmp_path):
        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        SweepRunner(cache={}, store=store).run(spec)
        stream = io.StringIO()
        SweepRunner(cache={}, store=store, manifest=RunManifest(stream)).run(spec)
        (sweep,) = _events(stream, "sweep")
        assert sweep["to_simulate"] == 0
        assert sweep["store_hits"] == 1
        assert len(_events(stream, "store_hit")) == 1

    def test_parallel_runner_fills_store(self, tmp_path):
        from repro.sweep import ScenarioGrid

        store = ResultStore(tmp_path, salt="s1")
        grid = ScenarioGrid.product(
            config=["baseline", "AW"], qps=[10_000, 20_000],
            horizon=[0.02], seed=[7],
        )
        SweepRunner(
            executor=ProcessExecutor(jobs=2), cache={}, store=store
        ).run_many(grid)
        assert len(store) == len(grid)
        # a fresh serial runner answers the whole grid from disk
        simulated = []
        fresh = SweepRunner(
            cache={}, store=store, progress=lambda d, t, s: simulated.append(s)
        )
        results = fresh.run_many(grid)
        assert simulated == []
        assert all(r.completed > 0 for r in results)


class TestBatchedWrites:
    def test_put_many_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path, salt="s1")
        specs = [_spec(), _spec(qps=30_000)]
        store.put_many([(s.cache_key, result, s) for s in specs])
        assert len(store) == 2
        found = store.get_many([s.cache_key for s in specs])
        assert set(found) == {s.cache_key for s in specs}
        for got in found.values():
            assert got.avg_core_power == result.avg_core_power
            assert got.server_latency.p99 == result.server_latency.p99

    def test_put_many_empty_is_noop(self, tmp_path):
        store = ResultStore(tmp_path, salt="s1")
        store.put_many([])
        assert len(store) == 0

    def test_put_many_last_writer_wins(self, tmp_path, result):
        store = ResultStore(tmp_path, salt="s1")
        spec = _spec()
        store.put_many([(spec.cache_key, result, spec)])
        store.put_many([(spec.cache_key, result, None)])
        assert len(store) == 1

    def test_run_many_flushes_one_batch(self, tmp_path):
        """The runner writes back via a single put_many per run_many."""
        calls = []

        class SpyStore(ResultStore):
            def put_many(self, items):
                items = list(items)
                calls.append(len(items))
                super().put_many(items)

            def put(self, key, result, spec=None):  # pragma: no cover
                raise AssertionError("per-point put must not be used")

        store = SpyStore(tmp_path, salt="s1")
        specs = [_spec(), _spec(qps=30_000), _spec(qps=40_000)]
        SweepRunner(cache={}, store=store).run_many(specs)
        assert calls == [3]
        assert len(store) == 3

    def test_raise_policy_still_banks_completed_results(self, tmp_path):
        """The finally-flush persists results banked before an abort."""
        from repro.sweep.spec import WORKLOAD_FACTORIES

        def explode():
            raise RuntimeError("kaboom")

        WORKLOAD_FACTORIES["explosive_store_test"] = explode
        try:
            store = ResultStore(tmp_path, salt="s1")
            specs = [
                _spec(),
                _spec(workload="explosive_store_test"),
            ]
            with pytest.raises(RuntimeError, match="kaboom"):
                SweepRunner(cache={}, store=store).run_many(specs)
            # the good point completed first and must have been persisted
            assert store.get(specs[0].cache_key) is not None
        finally:
            del WORKLOAD_FACTORIES["explosive_store_test"]


# -- multi-process write safety ----------------------------------------------
#
# The distributed executor points N worker *processes* at the ONE shared
# sqlite store. WAL mode plus one long-lived connection per process with
# a busy timeout is the whole concurrency story, so prove it holds: two
# processes hammering ``put_many`` concurrently must lose no writes and
# must keep the LRU clock (``last_access``) monotonic per row.

def _hammer_put_many(store_dir, label, n, batch):
    """Spawn target: commit ``n`` rows in many small contending batches."""
    store = ResultStore(store_dir, salt="mp")
    result = _spec(horizon=0.005, seed=0).execute()
    for start in range(0, n, batch):
        store.put_many(
            [
                ((label, i), result, None)
                for i in range(start, min(start + batch, n))
            ]
        )


class TestMultiProcessWriters:
    def test_concurrent_put_many_loses_no_writes(self, tmp_path):
        import multiprocessing
        import sqlite3

        n = 40
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(
                target=_hammer_put_many,
                args=(str(tmp_path), label, n, 4),
            )
            for label in ("alpha", "beta")
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(120.0)
            assert proc.exitcode == 0
        store = ResultStore(tmp_path, salt="mp")
        assert len(store) == 2 * n  # every row from both writers landed
        for label in ("alpha", "beta"):
            for i in range(n):
                assert store.get((label, i)) is not None

        # The LRU clock: the get() sweep above must only ever move
        # last_access forward past the write-time stamps.
        conn = sqlite3.connect(str(store.path))
        try:
            rows = conn.execute(
                "SELECT created_at, last_access FROM results"
            ).fetchall()
        finally:
            conn.close()
        assert len(rows) == 2 * n
        for created_at, last_access in rows:
            assert last_access is not None
            assert last_access >= created_at
