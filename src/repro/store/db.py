"""The sqlite connection policy shared by the result store and job queue.

Both :class:`~repro.store.ResultStore` and
:class:`~repro.distrib.queue.JobQueue` are one sqlite file that several
processes (CLI invocations, sweep workers, a distributed fleet) open at
once. They share one policy, kept here:

- **WAL journal mode**, so readers never block the writer. It is set
  once, when a connection opens.
- **A busy timeout** of :data:`BUSY_TIMEOUT_S`: a writer that finds the
  database locked waits for it instead of failing.
- **One long-lived connection per process and thread**, opened lazily on
  first use and kept until :meth:`Database.close`. Opening a connection
  per operation cost more than the statement it ran: each open re-issued
  the WAL pragma, and each close of the last connection on a database
  checkpointed the WAL into the main file.
- **Fork safety.** A sqlite connection must not be used across
  ``fork()``. When the process id changes, the child sets aside the
  connections it inherited, never using or closing them, and opens its
  own.

Statements run in Python's implicit deferred transactions: a write opens
the transaction, so a read that precedes it (a cache lookup before its
``last_access`` update) holds no snapshot the write would have to
upgrade. Read-modify-write critical sections ask for ``BEGIN IMMEDIATE``
instead. Callers consume every cursor they open: a statement left
pending pins a WAL snapshot, which keeps checkpoints and ``VACUUM`` from
shrinking the files.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
from pathlib import Path
from typing import Iterator, List, Union

#: Seconds a statement waits for another connection's lock before it
#: fails with ``database is locked``.
BUSY_TIMEOUT_S = 30.0

#: Connections a forked child inherited from its parent. Holding them
#: here keeps the child from finalizing, and so closing, its parent's
#: connections.
_INHERITED: List[List[sqlite3.Connection]] = []


class Database:
    """Per-process, per-thread connections to one sqlite file.

    Args:
        path: the database file (created on first connection).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = str(path)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: List[sqlite3.Connection] = []

    def _check_pid(self) -> None:
        """After a fork, set the parent's connections aside (see module
        docs); the child opens its own on first use."""
        if self._pid == os.getpid():
            return
        _INHERITED.append(self._open)
        self._pid = os.getpid()
        # The parent's lock may have been held by a thread that does not
        # exist in the child.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open = []

    def connection(self) -> sqlite3.Connection:
        """This thread's connection, opened (in WAL mode) on first use."""
        self._check_pid()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            # Each connection is used only by the thread that opened it;
            # check_same_thread=False lets close() run from any thread.
            conn = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_S, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL").fetchall()
            with self._lock:
                self._open.append(conn)
                self._local.conn = conn
        return conn

    @contextlib.contextmanager
    def transaction(self, immediate: bool = False) -> Iterator[sqlite3.Connection]:
        """This thread's connection; commit on success, roll back on error.

        ``immediate=True`` opens the transaction with ``BEGIN IMMEDIATE``
        so the read half of a read-modify-write already holds the write
        lock. Otherwise the first write statement opens a deferred one.
        """
        conn = self.connection()
        if immediate:
            conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            conn.commit()
        except BaseException:
            # The connection outlives this call: never leave it inside a
            # transaction.
            conn.rollback()
            raise

    def close(self) -> None:
        """Close every connection this process opened; later use reopens."""
        self._check_pid()
        with self._lock:
            conns, self._open = self._open, []
            self._local = threading.local()
        for conn in conns:
            conn.close()
