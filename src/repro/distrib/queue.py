"""File/sqlite-backed job queue with atomic time-limited leases.

One ``queue.sqlite`` database inside a *queue directory* holds one row
per deduplicated sweep point. Workers — independent processes, possibly
on other hosts sharing the filesystem — claim rows through **leases**:
a claim atomically flips a ``pending`` row to ``leased`` with an expiry
timestamp, and the worker extends that expiry (its heartbeat) while it
simulates. A worker that dies silently simply stops extending; the
coordinator's recovery pass requeues any lease that lapsed. No row is
ever lost to a crash: every point ends ``done`` (result in the shared
:class:`~repro.store.ResultStore`) or ``failed`` (structured failure
record in the row).

Process safety follows :mod:`repro.store.result_store` exactly, through
the same :mod:`repro.store.db` policy: WAL journal mode so readers never
block the writer, a generous busy timeout, and one long-lived
connection per process and thread. Claims additionally use ``BEGIN
IMMEDIATE`` so the select-then-update is one atomic critical section —
two workers racing for the last row cannot both win it.

Rows move through four states::

    pending --claim--> leased --complete--> done
       ^                  |
       |                  +--fail/expiry (attempts left) --> pending
       +--release---------+  (with backoff: exponential + jitter)
                          |
                          +--fail/expiry (attempts exhausted,
                             or poison: killed K distinct workers)
                                                        --> failed

Retry scheduling uses exponential backoff with **decorrelated jitter**
(each delay drawn from ``[base, 3 * previous]``, capped), so a point
that keeps failing does not hammer the queue in lockstep with its
peers. The jitter is derived from a hash of ``(job key, attempt)``
rather than an RNG: scheduling stays deterministic for tests while
still decorrelating across jobs, and simulation results never depend
on it either way.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.store.db import Database
from repro.sweep.spec import ScenarioSpec

#: Database filename inside the queue directory.
DB_FILENAME = "queue.sqlite"

#: Subdirectory where workers append their per-worker run manifests.
MANIFEST_DIRNAME = "manifests"

#: Job states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, LEASED, DONE, FAILED)

#: Default lease duration granted by :meth:`JobQueue.claim` (seconds).
#: Workers heartbeat at a fraction of this, so transient stalls shorter
#: than a lease never trigger a spurious requeue.
DEFAULT_LEASE_S = 30.0

#: Backoff bounds for requeued failures (seconds).
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key            TEXT PRIMARY KEY,
    spec           TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempt        INTEGER NOT NULL DEFAULT 0,
    not_before     REAL NOT NULL DEFAULT 0,
    backoff_s      REAL NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_expires  REAL,
    failed_workers TEXT NOT NULL DEFAULT '[]',
    error          TEXT,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL
)
"""

#: The next claimable row, oldest first.
_CLAIM_SQL = (
    "SELECT key, spec, attempt FROM jobs "
    "WHERE state = ? AND not_before <= ? "
    "ORDER BY created_at ASC, key ASC LIMIT 1"
)

#: Serves :data:`_CLAIM_SQL` in index order. Without it every claim scans
#: and sorts the table, so claims cost O(n^2) over a sweep. ``IF NOT
#: EXISTS`` also adds it to queue directories created before it existed.
_CLAIM_INDEX = (
    "CREATE INDEX IF NOT EXISTS jobs_claim ON jobs (state, created_at, key)"
)


def job_key(spec: ScenarioSpec) -> str:
    """Stable queue identity of a spec: sha256 of its canonical cache key.

    Distinct from the store digest on purpose — the store key mixes in
    the code-version salt, while a queue row identifies *work*, not a
    cached artifact. Two coordinators enqueueing the same grid into the
    same directory produce the same rows.
    """
    payload = json.dumps(list(spec.cache_key), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def backoff_s(key: str, attempt: int, previous: float) -> float:
    """Next retry delay: exponential backoff with decorrelated jitter.

    Implements the decorrelated-jitter recurrence ``delay = min(cap,
    uniform(base, 3 * previous))`` with the uniform draw replaced by a
    hash of ``(key, attempt)`` — deterministic per (job, attempt), yet
    spread across jobs so requeued points do not thunder back in
    lockstep. The first retry (``previous == 0``) falls back to the
    plain exponential floor ``base * 2**(attempt-1)``.
    """
    unit = int.from_bytes(
        hashlib.sha256(f"{key}:{attempt}".encode("ascii")).digest()[:8], "big"
    ) / float(1 << 64)
    if previous <= 0:
        low = BACKOFF_BASE_S
        high = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** max(0, attempt - 1)))
    else:
        low = BACKOFF_BASE_S
        high = min(BACKOFF_CAP_S, 3.0 * previous)
    if high < low:
        high = low
    return low + unit * (high - low)


@dataclass(frozen=True)
class Job:
    """One claimed unit of work, as handed to a worker."""

    key: str
    spec: Dict[str, object]
    attempt: int
    lease_expires: float


@dataclass(frozen=True)
class JobView:
    """Read-only snapshot of one queue row (coordinator/report side)."""

    key: str
    state: str
    attempt: int
    lease_owner: Optional[str]
    lease_expires: Optional[float]
    not_before: float
    error: Optional[str]
    failed_workers: Tuple[str, ...]


@dataclass
class RecoveryReport:
    """What one :meth:`JobQueue.recover_expired` pass did."""

    requeued: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.requeued) + len(self.failed) + len(self.quarantined)


class JobQueue:
    """Lease-based job queue over one sqlite database (see module docs).

    Args:
        root: queue directory (created if missing). Everything a
            distributed run needs to resume lives here: the database
            plus the per-worker manifest directory.
    """

    def __init__(self, root: str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / DB_FILENAME
        self._db = Database(self.path)
        with self._db.transaction() as conn:
            conn.execute(_SCHEMA)
            conn.execute(_CLAIM_INDEX)

    def close(self) -> None:
        """Close this process's connections; the next operation reopens."""
        self._db.close()

    def manifest_dir(self) -> Path:
        """Directory for per-worker run manifests (created on demand)."""
        path = self.root / MANIFEST_DIRNAME
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- producing work ----------------------------------------------------
    def enqueue(self, specs: Sequence[ScenarioSpec]) -> int:
        """Insert one pending row per novel spec; returns rows added.

        ``INSERT OR IGNORE`` keyed on :func:`job_key` makes this
        idempotent: re-invoking a coordinator over the same queue
        directory re-adopts every existing row in whatever state it
        reached — done rows stay done, in-flight leases stay leased —
        which is exactly the resume semantics a crashed run needs.
        """
        now = time.time()
        rows = [
            (
                job_key(spec),
                json.dumps(spec.to_dict(), separators=(",", ":")),
                now,
                now,
            )
            for spec in specs
        ]
        if not rows:
            return 0
        with self._db.transaction() as conn:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO jobs (key, spec, created_at, updated_at) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
            return conn.total_changes - before

    def heal(self, specs: Sequence[ScenarioSpec]) -> int:
        """Repair rows whose spec payload was lost or corrupted.

        The coordinator holds the authoritative specs, so it can restore
        what on-disk faults (or the chaos harness) destroy: a row whose
        stored spec JSON no longer parses — flagged ``failed`` with a
        ``corrupt`` record by the worker that tripped over it, or still
        ``pending`` — gets its payload rewritten and is requeued;
        :meth:`enqueue`'s idempotent insert (run it first) restores
        dropped rows. Returns the number of rows repaired.
        """
        healed = 0
        by_key = {job_key(spec): spec for spec in specs}
        with self._db.transaction(immediate=True) as conn:
            rows = conn.execute(
                "SELECT key, spec, state FROM jobs WHERE state IN (?, ?)",
                (PENDING, FAILED),
            ).fetchall()
            now = time.time()
            for key, payload, state in rows:
                spec = by_key.get(key)
                if spec is None:
                    continue
                corrupt = False
                try:
                    ScenarioSpec.from_dict(json.loads(payload))
                except Exception:
                    corrupt = True
                if not corrupt:
                    # Only corrupt payloads are healable; a FAILED row
                    # with an intact spec is a real simulation failure
                    # and stays terminal.
                    continue
                conn.execute(
                    "UPDATE jobs SET spec = ?, state = ?, error = NULL, "
                    "not_before = 0, updated_at = ? WHERE key = ?",
                    (
                        json.dumps(spec.to_dict(), separators=(",", ":")),
                        PENDING,
                        now,
                        key,
                    ),
                )
                healed += 1
        return healed

    def requeue_done(self, specs: Sequence[ScenarioSpec]) -> int:
        """Send the ``done`` rows of ``specs`` back to pending.

        A done row promises that its result is in the shared store. A
        queue directory reused with another store breaks that promise,
        and no worker claims a done row again, so the coordinator hands
        such rows back here. Each gets a fresh attempt budget, as a
        newly enqueued row does. Returns the number of rows requeued.
        """
        now = time.time()
        rows = [(PENDING, now, job_key(spec), DONE) for spec in specs]
        if not rows:
            return 0
        with self._db.transaction() as conn:
            before = conn.total_changes
            conn.executemany(
                "UPDATE jobs SET state = ?, attempt = 0, not_before = 0, "
                "backoff_s = 0, lease_owner = NULL, lease_expires = NULL, "
                "failed_workers = '[]', error = NULL, updated_at = ? "
                "WHERE key = ? AND state = ?",
                rows,
            )
            return conn.total_changes - before

    # -- worker protocol ---------------------------------------------------
    def claim(
        self,
        worker: str,
        lease_s: float = DEFAULT_LEASE_S,
        now: Optional[float] = None,
    ) -> Optional[Job]:
        """Atomically lease the next ready pending row, or return None.

        Rows are taken oldest-first (stable ``created_at, key`` order)
        among those whose backoff gate ``not_before`` has passed. The
        claim increments the attempt counter — a lease *is* an attempt,
        whether or not the worker survives it.

        A row whose stored spec no longer parses (torn write, chaos
        corruption) is marked ``failed`` with a structured ``corrupt``
        record instead of being handed out, and the scan moves on; the
        coordinator's :meth:`heal` pass can later restore and requeue
        it.
        """
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
        now = time.time() if now is None else now
        while True:
            with self._db.transaction(immediate=True) as conn:
                row = conn.execute(_CLAIM_SQL, (PENDING, now)).fetchone()
                if row is None:
                    return None
                key, payload, attempt = row
                try:
                    spec_dict = json.loads(payload)
                    if not isinstance(spec_dict, dict):
                        raise ValueError("spec row is not a JSON object")
                except ValueError as exc:
                    conn.execute(
                        "UPDATE jobs SET state = ?, error = ?, updated_at = ? "
                        "WHERE key = ?",
                        (
                            FAILED,
                            json.dumps(
                                {
                                    "kind": "corrupt",
                                    "error": f"unreadable spec row: {exc}",
                                    "attempts": attempt,
                                }
                            ),
                            now,
                            key,
                        ),
                    )
                    continue  # next candidate
                expires = now + lease_s
                conn.execute(
                    "UPDATE jobs SET state = ?, attempt = attempt + 1, "
                    "lease_owner = ?, lease_expires = ?, updated_at = ? "
                    "WHERE key = ?",
                    (LEASED, worker, expires, now, key),
                )
                return Job(
                    key=key,
                    spec=spec_dict,
                    attempt=attempt + 1,
                    lease_expires=expires,
                )

    def heartbeat(
        self,
        key: str,
        worker: str,
        lease_s: float = DEFAULT_LEASE_S,
        now: Optional[float] = None,
    ) -> bool:
        """Extend a held lease; False means the lease was lost.

        Ownership is checked in the UPDATE itself, so a worker whose
        lapsed lease was already requeued (and possibly re-claimed by a
        peer) learns it here and must abandon the point — its eventual
        result would be a harmless duplicate write of identical bytes,
        but it no longer owns the row.
        """
        now = time.time() if now is None else now
        with self._db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ?, updated_at = ? "
                "WHERE key = ? AND state = ? AND lease_owner = ?",
                (now + lease_s, now, key, LEASED, worker),
            )
            return cursor.rowcount == 1

    def complete(self, key: str, worker: str, now: Optional[float] = None) -> bool:
        """Mark a row done (its result is in the shared store).

        Deliberately *not* ownership-gated: simulations are
        deterministic, so whichever executor observed the result in the
        store may settle the row — this is how the coordinator closes
        out a point whose worker died between the store write and the
        commit (the result exists; re-running it would only waste CPU).
        """
        now = time.time() if now is None else now
        with self._db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?, error = NULL, "
                "updated_at = ? WHERE key = ? AND state != ?",
                (DONE, worker, now, key, DONE),
            )
            return cursor.rowcount == 1

    def release(self, key: str, worker: str, now: Optional[float] = None) -> bool:
        """Gracefully return a leased row to pending (SIGTERM path).

        The attempt counter is decremented — a handed-back lease is an
        operator action, not a failure, and must not eat into
        ``FailurePolicy.retries``.
        """
        now = time.time() if now is None else now
        with self._db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, attempt = attempt - 1, "
                "lease_owner = NULL, lease_expires = NULL, updated_at = ? "
                "WHERE key = ? AND state = ? AND lease_owner = ?",
                (PENDING, now, key, LEASED, worker),
            )
            return cursor.rowcount == 1

    def fail(
        self,
        key: str,
        worker: str,
        error: str,
        retries: int = 0,
        now: Optional[float] = None,
    ) -> str:
        """Record a worker-side execution failure.

        Honours ``FailurePolicy.retries``: with attempts left the row
        returns to pending behind a :func:`backoff_s` gate and
        ``"requeued"`` is returned; otherwise the row goes terminal with
        a structured failure record and ``"failed"`` is returned.
        """
        now = time.time() if now is None else now
        with self._db.transaction(immediate=True) as conn:
            row = conn.execute(
                "SELECT attempt, backoff_s FROM jobs "
                "WHERE key = ? AND state = ? AND lease_owner = ?",
                (key, LEASED, worker),
            ).fetchone()
            if row is None:
                return "lost"  # lease lapsed and was requeued already
            attempt, previous = row
            if attempt <= retries:
                delay = backoff_s(key, attempt, previous)
                conn.execute(
                    "UPDATE jobs SET state = ?, lease_owner = NULL, "
                    "lease_expires = NULL, not_before = ?, backoff_s = ?, "
                    "error = ?, updated_at = ? WHERE key = ?",
                    (PENDING, now + delay, delay, error, now, key),
                )
                return "requeued"
            conn.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL, "
                "lease_expires = NULL, error = ?, updated_at = ? WHERE key = ?",
                (
                    FAILED,
                    json.dumps(
                        {"kind": "error", "error": error, "attempts": attempt}
                    ),
                    now,
                    key,
                ),
            )
            return "failed"

    # -- coordinator protocol ----------------------------------------------
    def recover_expired(
        self,
        retries: int = 0,
        poison_k: int = 3,
        now: Optional[float] = None,
    ) -> RecoveryReport:
        """Requeue or quarantine every lapsed lease (coordinator pass).

        A claimed-but-unfinished row whose lease expired means its
        worker died (or froze past its heartbeat): the owner is added to
        the row's distinct ``failed_workers`` set, then the row is

        - **quarantined** (terminal ``failed`` with a ``poison`` record)
          once it has now killed ``poison_k`` distinct workers — a
          poison point must not loop forever chewing through the fleet;
        - **failed** (terminal, ``lease_expired`` record) when its
          attempts exhausted ``retries``;
        - **requeued** otherwise, behind an exponential-backoff-with-
          jitter gate exactly like a reported failure.
        """
        now = time.time() if now is None else now
        report = RecoveryReport()
        with self._db.transaction(immediate=True) as conn:
            rows = conn.execute(
                "SELECT key, attempt, backoff_s, lease_owner, failed_workers "
                "FROM jobs WHERE state = ? AND lease_expires < ?",
                (LEASED, now),
            ).fetchall()
            for key, attempt, previous, owner, failed_workers in rows:
                try:
                    workers = list(json.loads(failed_workers))
                except ValueError:
                    workers = []
                if owner and owner not in workers:
                    workers.append(owner)
                workers_json = json.dumps(workers)
                if len(workers) >= poison_k:
                    conn.execute(
                        "UPDATE jobs SET state = ?, lease_owner = NULL, "
                        "lease_expires = NULL, failed_workers = ?, "
                        "error = ?, updated_at = ? WHERE key = ?",
                        (
                            FAILED,
                            workers_json,
                            json.dumps(
                                {
                                    "kind": "poison",
                                    "error": (
                                        f"poison point: killed {len(workers)} "
                                        "distinct worker(s)"
                                    ),
                                    "attempts": attempt,
                                    "workers": workers,
                                }
                            ),
                            now,
                            key,
                        ),
                    )
                    report.quarantined.append(key)
                elif attempt > retries:
                    conn.execute(
                        "UPDATE jobs SET state = ?, lease_owner = NULL, "
                        "lease_expires = NULL, failed_workers = ?, "
                        "error = ?, updated_at = ? WHERE key = ?",
                        (
                            FAILED,
                            workers_json,
                            json.dumps(
                                {
                                    "kind": "lease_expired",
                                    "error": (
                                        f"lease expired after {attempt} "
                                        f"attempt(s) (last worker: {owner})"
                                    ),
                                    "attempts": attempt,
                                    "workers": workers,
                                }
                            ),
                            now,
                            key,
                        ),
                    )
                    report.failed.append(key)
                else:
                    delay = backoff_s(key, attempt, previous)
                    conn.execute(
                        "UPDATE jobs SET state = ?, lease_owner = NULL, "
                        "lease_expires = NULL, failed_workers = ?, "
                        "not_before = ?, backoff_s = ?, updated_at = ? "
                        "WHERE key = ?",
                        (PENDING, workers_json, now + delay, delay, now, key),
                    )
                    report.requeued.append(key)
        return report

    # -- introspection -----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row counts by state (absent states map to 0)."""
        out = {state: 0 for state in STATES}
        for state, count in self._db.connection().execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ).fetchall():
            out[state] = count
        return out

    def jobs(self) -> List[JobView]:
        """Snapshot of every row, in stable (created_at, key) order."""
        rows = self._db.connection().execute(
            "SELECT key, state, attempt, lease_owner, lease_expires, "
            "not_before, error, failed_workers FROM jobs "
            "ORDER BY created_at ASC, key ASC"
        ).fetchall()
        out = []
        for key, state, attempt, owner, expires, not_before, error, fw in rows:
            try:
                workers = tuple(json.loads(fw))
            except ValueError:
                workers = ()
            out.append(
                JobView(
                    key=key,
                    state=state,
                    attempt=attempt,
                    lease_owner=owner,
                    lease_expires=expires,
                    not_before=not_before,
                    error=error,
                    failed_workers=workers,
                )
            )
        return out

    def states(self) -> Dict[str, str]:
        """``{key: state}`` for every row (one cheap query)."""
        return dict(
            self._db.connection().execute("SELECT key, state FROM jobs").fetchall()
        )

    def _parse_error(self, key: str, error: Optional[str]) -> Dict[str, object]:
        if error is None:
            return {"kind": "error", "error": "unknown failure", "attempts": 0}
        try:
            record = json.loads(error)
            if isinstance(record, dict) and "error" in record:
                return record
        except ValueError:
            pass
        return {"kind": "error", "error": str(error), "attempts": 0}

    def failures(self) -> Dict[str, Dict[str, object]]:
        """Structured failure records of every terminal ``failed`` row."""
        rows = self._db.connection().execute(
            "SELECT key, error FROM jobs WHERE state = ?", (FAILED,)
        ).fetchall()
        return {key: self._parse_error(key, error) for key, error in rows}

    def is_drained(self, now: Optional[float] = None) -> bool:
        """True when no work remains for a standalone worker.

        No pending rows (ready *or* waiting out a backoff gate) and no
        unexpired lease held by anyone. Expired leases do not count as
        work: without a coordinator to recover them they would park a
        draining worker forever.
        """
        now = time.time() if now is None else now
        rows = self._db.connection().execute(
            "SELECT 1 FROM jobs WHERE state = ? "
            "OR (state = ? AND lease_expires >= ?) LIMIT 1",
            (PENDING, LEASED, now),
        ).fetchall()
        return not rows

    def __len__(self) -> int:
        (count,) = self._db.connection().execute(
            "SELECT COUNT(*) FROM jobs"
        ).fetchone()
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobQueue({str(self.root)!r})"
