"""Chrome trace-event export: open a simulation run in Perfetto.

Converts a :class:`~repro.simkit.trace.TraceRecorder`'s flat event list
into the Chrome trace-event JSON format (the ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_ interchange format):

* per-core **C-state intervals** become complete (``"X"``) duration
  events on a ``pid=node, tid=core`` lane — the idle span from
  ``enter_idle`` to the matching ``wake`` is labelled with the C-state
  name, and the active span between a wake and the next idle entry is
  labelled ``C0``, so every core track is gap-free;
* **request lifecycles** become async (``"b"``/``"e"``) spans — a node
  request spans arrival to service completion; a cluster's logical
  request spans dispatch to last-leaf completion with one nested span
  per leaf, and a hedge shows up as an async-instant (``"n"``) mark on
  the leaf span it duplicates (the duplicate *shares* the original's
  ``(lid, ordinal)`` span id, so the race is visible on one track);
* **snoops** become thread-scoped instant (``"i"``) events.

Sources are mapped to process lanes by their cluster prefix:
``n{i}.core{k}`` → ``pid=i+1, tid=k``; unprefixed ``core{k}``
(standalone node) → ``pid=1``; the dispatcher's ``lb`` source →
``pid=0``. Timestamps are microseconds, as the format requires.

Simulated time is the only clock: the export is a pure function of the
recorded events, so equal seeds give byte-identical trace files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simkit.trace import TraceEvent, TraceRecorder

#: Process id of the load-balancer / dispatcher lane.
LB_PID = 0

#: Event categories used in the export (handy for Perfetto queries).
CATEGORY_CSTATE = "cstate"
CATEGORY_REQUEST = "request"
CATEGORY_SNOOP = "snoop"


def _us(time_s: float) -> float:
    """Seconds → microseconds (the trace-event time unit)."""
    return time_s * 1e6


def source_lane(source: str) -> Tuple[int, int]:
    """``(pid, tid)`` lane for a trace source string.

    ``n{i}.core{k}`` → ``(i + 1, k)``; bare ``core{k}`` → ``(1, k)``;
    ``lb`` (optionally prefixed) → ``(LB_PID, 0)``; anything else lands
    on thread 0 of its node lane.
    """
    node = 0
    rest = source
    if source.startswith("n"):
        head, dot, tail = source.partition(".")
        if dot and head[1:].isdigit():
            node = int(head[1:])
            rest = tail
    if rest == "lb":
        return (LB_PID, 0)
    if rest.startswith("core") and rest[4:].isdigit():
        return (node + 1, int(rest[4:]))
    return (node + 1, 0)


def _meta(pid: int, name: str, tid: Optional[int] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def trace_to_chrome(
    events: Sequence[TraceEvent],
    horizon: float,
    dropped: int = 0,
) -> Dict[str, Any]:
    """Build the Chrome trace-event document for a recorded run.

    Args:
        events: the recorder's events (any order; sorted internally by
            time with recording order as the tiebreak).
        horizon: run end time in simulated seconds — closes C-state
            intervals still open when the simulation stopped.
        dropped: events the recorder discarded at capacity; surfaced in
            the document metadata so capped traces are never silently
            partial.

    Returns:
        A JSON-safe dict: ``{"traceEvents": [...], "displayTimeUnit":
        "ms", "metadata": {...}}``.
    """
    ordered = sorted(
        enumerate(events), key=lambda pair: (pair[1].time, pair[0])
    )
    out: List[Dict[str, Any]] = []
    lanes: Dict[Tuple[int, int], str] = {}
    # Per-core open interval: (start_s, state_name) — the track alternates
    # idle (enter_idle → wake) and active C0 (wake → enter_idle) spans.
    open_state: Dict[Tuple[int, int], Tuple[float, str]] = {}

    def close_interval(lane: Tuple[int, int], end_s: float) -> None:
        started = open_state.pop(lane, None)
        if started is None:
            return
        start_s, name = started
        out.append({
            "name": name,
            "cat": CATEGORY_CSTATE,
            "ph": "X",
            "ts": _us(start_s),
            "dur": _us(max(end_s - start_s, 0.0)),
            "pid": lane[0],
            "tid": lane[1],
        })

    for _, event in ordered:
        lane = source_lane(event.source)
        lanes.setdefault(lane, event.source)
        pid, tid = lane
        kind = event.kind
        payload = event.payload
        if kind == "enter_idle":
            # Close the preceding active span; open the idle one.
            close_interval(lane, event.time)
            open_state[lane] = (event.time, str(payload))
        elif kind == "wake":
            close_interval(lane, event.time)
            open_state[lane] = (event.time, "C0")
        elif kind == "snoop":
            out.append({
                "name": f"snoop:{payload}",
                "cat": CATEGORY_SNOOP,
                "ph": "i",
                "s": "t",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
            })
        elif kind == "arrival":
            out.append({
                "name": "request",
                "cat": CATEGORY_REQUEST,
                "ph": "b",
                "id": f"req{pid}.{payload}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
            })
        elif kind == "complete" and pid != LB_PID:
            out.append({
                "name": "request",
                "cat": CATEGORY_REQUEST,
                "ph": "e",
                "id": f"req{pid}.{payload}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
            })
        elif kind == "dispatch":
            lid, targets = payload
            out.append({
                "name": "logical",
                "cat": CATEGORY_REQUEST,
                "ph": "b",
                "id": f"lid{lid}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
                "args": {"targets": list(targets)},
            })
        elif kind == "complete":  # pid == LB_PID: logical completion
            out.append({
                "name": "logical",
                "cat": CATEGORY_REQUEST,
                "ph": "e",
                "id": f"lid{payload}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
            })
        elif kind == "leaf":
            lid, ordinal, home = payload
            out.append({
                "name": "leaf",
                "cat": CATEGORY_REQUEST,
                "ph": "b",
                "id": f"lid{lid}.{ordinal}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
                "args": {"home": home},
            })
        elif kind == "leaf_done":
            lid, ordinal = payload
            out.append({
                "name": "leaf",
                "cat": CATEGORY_REQUEST,
                "ph": "e",
                "id": f"lid{lid}.{ordinal}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
            })
        elif kind == "hedge":
            lid, ordinal, alt = payload
            # The duplicate shares the original leaf's span id, so the
            # hedge mark lands on the span it races.
            out.append({
                "name": "hedge",
                "cat": CATEGORY_REQUEST,
                "ph": "n",
                "id": f"lid{lid}.{ordinal}",
                "ts": _us(event.time),
                "pid": pid,
                "tid": tid,
                "args": {"alt": alt},
            })
        # Unknown kinds are skipped: the exporter only maps the stable
        # vocabulary above; new trace points appear once mapped here.

    # Close intervals still open when the run stopped, in lane order
    # (deterministic output ordering).
    for lane in sorted(open_state):
        close_interval(lane, horizon)

    metadata_events: List[Dict[str, Any]] = []
    pids = sorted({pid for pid, _ in lanes})
    for pid in pids:
        name = "lb" if pid == LB_PID else f"node{pid - 1}"
        metadata_events.append(_meta(pid, name))
    for pid, tid in sorted(lanes):
        if pid != LB_PID:
            metadata_events.append(_meta(pid, f"core{tid}", tid=tid))

    return {
        "traceEvents": metadata_events + out,
        "displayTimeUnit": "ms",
        "metadata": {
            "recorded_events": len(events),
            "dropped_events": dropped,
            "horizon_s": horizon,
        },
    }


def run_traced(
    spec: "Any",
    capacity: Optional[int] = None,
    log: Optional[Any] = None,
) -> Tuple["Any", TraceRecorder]:
    """Execute a :class:`~repro.sweep.spec.ScenarioSpec` with tracing on.

    Calls ``spec.execute(trace=...)`` with a fresh recorder; the result
    is bit-identical to the untraced run's, so the trace annotates
    exactly that run.

    Returns:
        ``(RunResult, TraceRecorder)``.
    """
    trace = TraceRecorder(capacity=capacity, log=log)
    return spec.execute(trace=trace), trace


def export_chrome_trace(
    spec: "Any",
    path: str,
    capacity: Optional[int] = None,
    log: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run ``spec`` traced and write the Chrome trace JSON to ``path``.

    Returns the document's ``metadata`` block (event/drop counts) for
    caller-side reporting.
    """
    result, trace = run_traced(spec, capacity=capacity, log=log)
    document = trace_to_chrome(
        trace.events, horizon=result.horizon, dropped=trace.dropped
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"), sort_keys=False)
        handle.write("\n")
    return dict(document["metadata"])
