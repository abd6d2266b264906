"""Queue-level faults for the distributed-executor tests.

Dropping and corrupting rows are applied directly to a job queue's
sqlite database between protocol steps, so they need no process
boundary (the worker-side kills live in :mod:`repro.distrib.chaos`).
"""

import sqlite3
from typing import Iterable

from repro.distrib.queue import JobQueue


def drop_rows(queue: JobQueue, keys: Iterable[str]) -> int:
    """Delete queue rows outright, as if the database lost them.

    The coordinator's idempotent re-enqueue pass restores dropped rows
    from its authoritative spec list. Returns rows deleted.
    """
    keys = list(keys)
    if not keys:
        return 0
    conn = sqlite3.connect(str(queue.path), timeout=30.0)
    try:
        with conn:
            conn.executemany(
                "DELETE FROM jobs WHERE key = ?", [(k,) for k in keys]
            )
            return conn.total_changes
    finally:
        conn.close()


def corrupt_rows(queue: JobQueue, keys: Iterable[str]) -> int:
    """Mangle the spec payload of queue rows (torn-write simulation).

    A worker that claims such a row marks it ``failed`` with a
    ``corrupt`` record; the coordinator's :meth:`JobQueue.heal` pass
    rewrites the payload from the authoritative spec and requeues.
    Returns rows corrupted.
    """
    keys = list(keys)
    if not keys:
        return 0
    conn = sqlite3.connect(str(queue.path), timeout=30.0)
    try:
        with conn:
            conn.executemany(
                "UPDATE jobs SET spec = '{\"torn' WHERE key = ?",
                [(k,) for k in keys],
            )
            return conn.total_changes
    finally:
        conn.close()
