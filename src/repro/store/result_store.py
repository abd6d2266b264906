"""Persistent, process-safe on-disk result store.

The in-memory memo cache (:mod:`repro.sweep.runner`) dies with the
process, so every CLI invocation used to re-simulate the whole grid. The
:class:`ResultStore` layers *under* that memo: results are keyed by the
spec's canonical :attr:`ScenarioSpec.cache_key` plus a **code-version
salt**, serialized exactly (:mod:`repro.store.serialize`) and kept in a
single sqlite database, so repeated invocations — and concurrent ones —
reuse each simulated point across processes.

Storage layout: one ``results.sqlite`` under ``--cache-dir``, the
``REPRO_CACHE_DIR`` environment variable, or ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``). sqlite provides the cross-process locking
(WAL journal, busy timeout). Each process and thread keeps one
long-lived connection (:mod:`repro.store.db`), reopened after a fork, so
stores can be shared freely between runner instances and forked
workers. :meth:`ResultStore.close` releases it.

The salt defaults to a digest of the ``repro`` package sources: any code
change invalidates every cached result, because a result is only
trustworthy for the exact simulator that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.server.metrics import RunResult
from repro.simkit import sanitizer as _sanitizer
from repro.store.db import Database
from repro.store.serialize import result_from_dict, result_to_dict

#: Database filename inside the cache directory.
DB_FILENAME = "results.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    digest      TEXT PRIMARY KEY,
    salt        TEXT NOT NULL,
    spec        TEXT,
    result      TEXT NOT NULL,
    created_at  REAL NOT NULL,
    last_access REAL
)
"""

#: Fixed per-row sqlite overhead estimate used by :meth:`ResultStore.prune_lru`
#: on top of the measured payload text (b-tree cell, rowid, column headers).
_ROW_OVERHEAD_BYTES = 128


def _audit_codec_roundtrip(payload: str) -> None:
    """SAN004 deep audit: every stored row must round-trip the codec.

    Decodes the exact payload about to be written and re-encodes it; the
    two canonical JSON strings must match byte-for-byte. Comparing
    encode(decode(payload)) with the payload catches truncating or lossy
    codecs even when the defect is in *encode* — a truncating encoder
    truncates again on the second pass, and the decoded intermediate no
    longer reproduces the original.
    """
    try:
        decoded = result_from_dict(json.loads(payload))
        again = json.dumps(result_to_dict(decoded), separators=(",", ":"))
    except (ConfigurationError, json.JSONDecodeError, TypeError) as exc:
        raise _sanitizer.violation(
            "SAN004", "store.serialize",
            f"store codec cannot decode the row it just encoded: {exc}",
        ) from exc
    if again != payload:
        raise _sanitizer.violation(
            "SAN004", "store.serialize",
            "store codec round-trip is lossy: re-encoding the decoded "
            "row changed the payload (a field is truncated, dropped, or "
            "decoded inexactly)",
        )


def default_store_dir() -> str:
    """Resolve the cache directory: $REPRO_CACHE_DIR > $XDG_CACHE_HOME/repro
    > ~/.cache/repro."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return str(base / "repro")


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the installed ``repro`` sources (16 hex chars).

    Hashes every ``.py`` file under the package root by path and content,
    so editing any module yields a new salt and silently invalidates all
    previously stored results.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultStore:
    """sqlite-backed map from (cache key, salt) to :class:`RunResult`.

    Args:
        root: cache directory (created if missing); defaults to
            :func:`default_store_dir`.
        salt: version salt mixed into every key; defaults to
            :func:`code_version_salt`. Records written under a different
            salt are invisible (but kept on disk until :meth:`clear`).
    """

    def __init__(self, root: Optional[str] = None, salt: Optional[str] = None):
        self.root = Path(root) if root else Path(default_store_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        self.salt = code_version_salt() if salt is None else str(salt)
        self.path = self.root / DB_FILENAME
        self._db = Database(self.path)
        with self._db.transaction() as conn:
            conn.execute(_SCHEMA)
            # Databases written before the LRU column existed: migrate in
            # place (NULL last_access sorts as never-accessed).
            columns = {
                row[1]
                for row in conn.execute("PRAGMA table_info(results)").fetchall()
            }
            if "last_access" not in columns:
                conn.execute("ALTER TABLE results ADD COLUMN last_access REAL")

    def close(self) -> None:
        """Close this process's connections; the next operation reopens."""
        self._db.close()

    # -- internals ---------------------------------------------------------
    def _digest(self, key: Tuple) -> str:
        payload = json.dumps([self.salt, list(key)], separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- mapping API -------------------------------------------------------
    def get(self, key: Tuple) -> Optional[RunResult]:
        """The stored result for ``key`` under this salt, or None.

        Corrupt or format-incompatible rows are dropped and reported as
        misses, so a half-written record can never poison a sweep.
        """
        return self.get_many([key]).get(key)

    def get_many(self, keys) -> dict:
        """Stored results for ``keys`` under this salt, batched.

        One transaction serves the whole lookup (a warm thousand-point
        grid would otherwise pay a thousand commits). Returns
        ``{key: RunResult}`` for the hits only; corrupt or
        format-incompatible rows are dropped and omitted.
        """
        keys = list(keys)
        digest_to_key = {self._digest(key): key for key in keys}
        out = {}
        corrupt = []
        digests = list(digest_to_key)
        with self._db.transaction() as conn:
            for start in range(0, len(digests), 500):
                chunk = digests[start:start + 500]
                rows = conn.execute(
                    "SELECT digest, result FROM results WHERE digest IN "
                    f"({','.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
                hits = []
                for digest, payload in rows:
                    try:
                        out[digest_to_key[digest]] = result_from_dict(
                            json.loads(payload)
                        )
                        hits.append(digest)
                    except (ConfigurationError, ValueError):  # bad JSON or UTF-8
                        corrupt.append(digest_to_key[digest])
                if hits:
                    # Record the hits so LRU eviction keeps hot points.
                    now = time.time()
                    conn.executemany(
                        "UPDATE results SET last_access = ? WHERE digest = ?",
                        [(now, digest) for digest in hits],
                    )
        if corrupt:
            self.delete(*corrupt)
        return out

    def put(self, key: Tuple, result: RunResult, spec=None) -> None:
        """Store ``result`` under ``key`` (last writer wins)."""
        self.put_many([(key, result, spec)])

    def put_many(self, items) -> None:
        """Store many ``(key, result, spec_or_None)`` triples at once.

        One connection and one transaction (``executemany``) serve the
        whole batch, amortising sqlite round-trips on thousand-point
        sweeps; last writer wins.
        """
        now = time.time()
        sanitize = _sanitizer.is_enabled()
        rows = []
        for key, result, spec in items:
            spec_json = None
            if spec is not None:
                spec_json = json.dumps(spec.to_dict(), separators=(",", ":"))
            payload = json.dumps(
                result_to_dict(result), separators=(",", ":")
            )
            if sanitize:
                _audit_codec_roundtrip(payload)
            rows.append(
                (
                    self._digest(key),
                    self.salt,
                    spec_json,
                    payload,
                    now,
                    now,
                )
            )
        if not rows:
            return
        with self._db.transaction() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO results "
                "(digest, salt, spec, result, created_at, last_access) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )

    def delete(self, *keys: Tuple) -> None:
        """Drop the records of ``keys``."""
        with self._db.transaction() as conn:
            conn.executemany(
                "DELETE FROM results WHERE digest = ?",
                [(self._digest(key),) for key in keys],
            )

    def __contains__(self, key: Tuple) -> bool:
        row = self._db.connection().execute(
            "SELECT 1 FROM results WHERE digest = ?", (self._digest(key),)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        """Records visible under this store's salt."""
        (count,) = self._db.connection().execute(
            "SELECT COUNT(*) FROM results WHERE salt = ?", (self.salt,)
        ).fetchone()
        return count

    def total_records(self) -> int:
        """All records on disk, including ones under stale salts."""
        (count,) = self._db.connection().execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        return count

    def stale_records(self) -> int:
        """Records written under other salts (prune candidates)."""
        (count,) = self._db.connection().execute(
            "SELECT COUNT(*) FROM results WHERE salt != ?", (self.salt,)
        ).fetchone()
        return count

    def size_bytes(self) -> int:
        """On-disk footprint of the database (including WAL sidecars)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    def db_bytes(self) -> int:
        """Size of the main database file alone.

        The ``-wal``/``-shm`` sidecars are transient runtime state that
        sqlite recreates at will (and rewrites during VACUUM), so the LRU
        size cap is enforced against this number, not :meth:`size_bytes`.

        Committed pages first move from the WAL into the main file (a
        checkpoint on this store's own connection), so the size does not
        depend on which other connections happen to be open.
        """
        if not self.path.exists():
            return 0
        self._db.connection().execute("PRAGMA wal_checkpoint(PASSIVE)").fetchall()
        return self.path.stat().st_size

    def prune_stale(self) -> int:
        """Drop records written under other salts; returns rows removed."""
        with self._db.transaction() as conn:
            removed = conn.execute(
                "DELETE FROM results WHERE salt != ?", (self.salt,)
            ).rowcount
        return removed

    def prune_lru(self, max_bytes: int) -> int:
        """Evict least-recently-accessed records until the store fits.

        Rows are dropped in ascending last-access order (records written
        before access tracking existed fall back to their creation time,
        so the oldest cold data goes first) and the database is VACUUMed
        so the file actually shrinks. An oversized store is VACUUMed
        before the first pass too: a file that holds free pages left by
        rewritten rows would otherwise be sized as if every page were
        live, and evict records that fit. Each pass sizes the eviction from
        the row payloads, then re-checks the real file size — sqlite page
        overhead varies — and evicts again if still over, so on return
        the main database file (:meth:`db_bytes`; the transient
        WAL/shared-memory sidecars are excluded) fits ``max_bytes``, or
        the store is empty. Returns the number of rows evicted.

        Raises:
            ConfigurationError: if ``max_bytes`` is negative.
        """
        if max_bytes < 0:
            raise ConfigurationError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        evicted = 0
        if self.db_bytes() > max_bytes:
            self._vacuum()
        while self.db_bytes() > max_bytes:
            excess = self.db_bytes() - max_bytes
            victims = []
            with self._db.transaction() as conn:
                rows = conn.execute(
                    "SELECT digest, LENGTH(result) + LENGTH(COALESCE(spec, ''))"
                    "  + LENGTH(digest) + LENGTH(salt) + ? "
                    "FROM results "
                    "ORDER BY COALESCE(last_access, created_at) ASC, "
                    "created_at ASC",
                    (_ROW_OVERHEAD_BYTES,),
                ).fetchall()
                if not rows:
                    break  # empty store: the rest is fixed sqlite overhead
                freed = 0
                for digest, size in rows:
                    if freed >= excess:
                        break
                    victims.append((digest,))
                    freed += size
                conn.executemany("DELETE FROM results WHERE digest = ?", victims)
            evicted += len(victims)
            self._vacuum()
        return evicted

    def _vacuum(self) -> None:
        """Compact the database file, returning free pages to the OS.

        VACUUM runs outside any transaction. In WAL mode it writes
        through the -wal sidecar, so truncate that too, or the on-disk
        footprint :meth:`prune_lru` measures would grow with every pass.
        """
        conn = self._db.connection()
        conn.execute("VACUUM").fetchall()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()

    def clear(self) -> None:
        """Drop every record (all salts)."""
        with self._db.transaction() as conn:
            conn.execute("DELETE FROM results")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultStore({str(self.path)!r}, salt={self.salt!r})"
