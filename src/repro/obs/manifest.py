"""Append-only JSONL run manifests for sweep execution.

A :class:`RunManifest` records the lifecycle of every point a sweep
executes — claimed by a worker, finished with wall-time and events/sec,
answered from the memo cache or the result store, timed out, retried,
failed — as one JSON object per line, flushed as written. The format is
deliberately dumb so it doubles as the heartbeat/progress stream a
distributed executor can tail: a consumer that reads half a line sees
valid JSON up to the previous newline, and a hard-killed producer loses
at most the line it was writing.

Every line carries:

* ``event`` — the event name (``sweep``, ``claimed``, ``finished``,
  ``memo_hit``, ``store_hit``, ``retry``, ``timeout`` (one per
  timed-out point, carrying ``budget_s``), ``failed``,
  ``store_disabled`` (the result store failed mid-sweep; ``error``),
  ``heartbeat`` — a distributed worker extending the lease
  of the point it is simulating, the liveness signal the coordinator's
  recovery is keyed off — plus worker lifecycle events
  ``worker_start``/``worker_exit``/``released`` and the coordinator's
  ``distributed``, ``requeued``, ``recovered``, ``healed`` (corrupt
  queue rows repaired; ``rows``) and ``workers_exited`` (local workers
  gone; ``count`` and ``respawn_budget_spent``), ...);
* ``t`` — seconds since the manifest was opened (monotonic clock, so
  per-point wall times are robust against wall-clock steps);
* ``wall`` — absolute POSIX time, for cross-process correlation;

plus event-specific fields (``point`` index, ``attempt``, ``worker``,
``wall_s``, ``events_per_s``, spec ``key`` strings...).

Timing fields describe *execution*, never simulation: results stay a
pure function of the spec, the manifest is observability sidecar data.
"""

from __future__ import annotations

import json
import time
from types import TracebackType
from typing import IO, Any, Optional, Type, Union


class RunManifest:
    """Append-only JSONL event log (see module docstring).

    Args:
        path_or_stream: file path (opened in append mode) or an already
            open text stream (not closed by :meth:`close`).
        worker: identity stamped on every line (e.g. ``"main"`` locally,
            a host/pid pair under a distributed executor).
    """

    def __init__(
        self, path_or_stream: Union[str, IO[str]], worker: str = "main"
    ):
        if isinstance(path_or_stream, str):
            self._stream: IO[str] = open(path_or_stream, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = path_or_stream
            self._owns_stream = False
        self.worker = worker
        self._t0 = time.monotonic()
        self._closed = False
        self.emitted = 0

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event line and flush it.

        Extra ``fields`` must be JSON-serialisable; reserved keys
        (``event``/``t``/``wall``/``worker``) cannot be overridden.
        """
        if self._closed:
            return
        row = {
            "event": event,
            "t": round(time.monotonic() - self._t0, 6),
            "wall": time.time(),
            "worker": self.worker,
        }
        for key, value in fields.items():
            if key not in row:
                row[key] = value
        self._stream.write(json.dumps(row, sort_keys=False) + "\n")
        self._stream.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def spec_key(spec: Any) -> str:
    """Compact stable identity string for a spec in manifest lines."""
    return repr(tuple(spec.cache_key))


def tail_summary(path: str) -> dict:
    """Crash-tolerant summary of one manifest file (fleet-view helper).

    A SIGKILLed worker may die mid-``write``, leaving a torn final line;
    this reader treats any undecodable line as the torn tail and keeps
    everything before it, so consumers (``repro report --manifest`` over
    a directory of per-worker manifests) never fail on a dead worker's
    file. Returns::

        {"path", "worker",            # last writer identity, or None
         "events",                    # well-formed lines read
         "counts",                    # {event: count}
         "last_event", "last_wall",   # final well-formed line, or None
         "torn_tail"}                 # True if any line failed to parse

    Unlike a torn *final* line, a torn line in the middle would mean
    interleaved writers — still not fatal here, it just sets
    ``torn_tail`` and skips the line.
    """
    counts: dict = {}
    worker = None
    last_event = None
    last_wall = None
    events = 0
    torn = False
    try:
        handle = open(path, encoding="utf-8", errors="replace")
    except OSError:
        return {
            "path": path, "worker": None, "events": 0, "counts": {},
            "last_event": None, "last_wall": None, "torn_tail": True,
        }
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("manifest line is not an object")
            except ValueError:
                torn = True
                continue
            events += 1
            event = str(row.get("event", "?"))
            counts[event] = counts.get(event, 0) + 1
            last_event = event
            if "worker" in row:
                worker = str(row["worker"])
            if isinstance(row.get("wall"), (int, float)):
                last_wall = float(row["wall"])
    return {
        "path": path,
        "worker": worker,
        "events": events,
        "counts": counts,
        "last_event": last_event,
        "last_wall": last_wall,
        "torn_tail": torn,
    }
