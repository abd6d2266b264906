"""Tests for result-store LRU eviction and last-access tracking."""

import sqlite3

from repro.store import ResultStore
from repro.sweep import ScenarioSpec, SweepRunner


def _spec(seed=7, **overrides):
    # A rate/horizon big enough that each record's latency-sample blob
    # (~2000 samples) dwarfs sqlite page granularity, so fractional size
    # caps in the eviction tests are meaningfully reachable.
    base = dict(
        workload="memcached", config="baseline", qps=100_000,
        horizon=0.02, seed=seed,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _result(spec):
    return SweepRunner(cache={}).run(spec)


def _last_access(store, key):
    with sqlite3.connect(str(store.path)) as conn:
        row = conn.execute(
            "SELECT last_access FROM results WHERE digest = ?",
            (store._digest(key),),
        ).fetchone()
    return row[0] if row else None


class TestLastAccess:
    def test_put_stamps_last_access(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec.cache_key, _result(spec), spec=spec)
        assert _last_access(store, spec.cache_key) is not None

    def test_get_refreshes_last_access(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec.cache_key, _result(spec), spec=spec)
        # Backdate, then hit: the hit must move last_access forward.
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET last_access = 1.0")
        assert store.get(spec.cache_key) is not None
        assert _last_access(store, spec.cache_key) > 1.0

    def test_get_many_refreshes_last_access(self, tmp_path):
        store = ResultStore(tmp_path)
        a, b = _spec(seed=1), _spec(seed=2)
        result = _result(a)
        store.put_many([(a.cache_key, result, a), (b.cache_key, result, b)])
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET last_access = 1.0")
        found = store.get_many([a.cache_key, b.cache_key])
        assert set(found) == {a.cache_key, b.cache_key}
        assert _last_access(store, a.cache_key) > 1.0
        assert _last_access(store, b.cache_key) > 1.0


class TestPruneLru:
    def _filled_store(self, tmp_path, n=6):
        store = ResultStore(tmp_path)
        specs = [_spec(seed=i) for i in range(n)]
        result = _result(specs[0])
        store.put_many([(s.cache_key, result, s) for s in specs])
        return store, specs

    def test_prunes_least_recently_accessed_first(self, tmp_path):
        store, specs = self._filled_store(tmp_path)
        # Explicit access ordering: seed i was last touched at time i+1,
        # so eviction order is specs[0], specs[1], ...
        with sqlite3.connect(str(store.path)) as conn:
            for i, spec in enumerate(specs):
                conn.execute(
                    "UPDATE results SET last_access = ? WHERE digest = ?",
                    (float(i + 1), store._digest(spec.cache_key)),
                )
        before = store.db_bytes()
        evicted = store.prune_lru(before // 2)
        assert 0 < evicted < len(specs)
        assert store.db_bytes() <= before // 2
        # The most recently accessed records survive.
        survivors = [s for s in specs if s.cache_key in store]
        assert survivors == specs[evicted:]

    def test_prune_to_zero_empties_the_store(self, tmp_path):
        store, specs = self._filled_store(tmp_path)
        evicted = store.prune_lru(0)
        assert evicted == len(specs)
        assert len(store) == 0

    def test_prune_noop_when_under_cap(self, tmp_path):
        store, specs = self._filled_store(tmp_path)
        assert store.prune_lru(store.size_bytes() + 1) == 0
        assert len(store) == len(specs)

    def test_prune_excludes_transient_sidecars_from_the_cap(self, tmp_path):
        # The WAL/shm files come and go with connections; the cap must
        # not chase them (a cap above the real data must evict nothing).
        store, specs = self._filled_store(tmp_path)
        assert store.prune_lru(store.db_bytes()) == 0
        assert len(store) == len(specs)

    def test_null_last_access_evicts_before_accessed_rows(self, tmp_path):
        store, specs = self._filled_store(tmp_path, n=3)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET last_access = NULL")
            # Only the last spec was ever accessed (recently).
            conn.execute(
                "UPDATE results SET last_access = 9e9 WHERE digest = ?",
                (store._digest(specs[-1].cache_key),),
            )
        store.prune_lru(store.db_bytes() // 2)
        assert specs[-1].cache_key in store

    def test_rewritten_rows_do_not_over_evict(self, tmp_path):
        # Rewriting rows leaves free pages behind. Once the writer closes
        # they sit in the main file, which must not be sized as live data:
        # one compacted row fits the cap, so only the two cold rows go.
        store, specs = self._filled_store(tmp_path, n=3)
        conn = sqlite3.connect(str(store.path))
        try:
            with conn:
                conn.execute("UPDATE results SET last_access = 1.0")
                conn.execute(
                    "UPDATE results SET last_access = 9e9 WHERE digest = ?",
                    (store._digest(specs[-1].cache_key),),
                )
        finally:
            conn.close()
        assert store.prune_lru(45056) == 2
        assert specs[-1].cache_key in store
        assert store.db_bytes() <= 45056


class TestMigration:
    def test_pre_lru_databases_migrate_in_place(self, tmp_path):
        # Build a database with the pre-LRU five-column schema.
        path = tmp_path / "results.sqlite"
        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "CREATE TABLE results ("
                "digest TEXT PRIMARY KEY, salt TEXT NOT NULL, spec TEXT, "
                "result TEXT NOT NULL, created_at REAL NOT NULL)"
            )
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec.cache_key, _result(spec), spec=spec)
        assert store.get(spec.cache_key) is not None
        assert store.prune_lru(0) == 1
