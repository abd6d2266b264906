"""Event tracing for debugging and analysis.

A :class:`TraceRecorder` collects (time, source, kind, payload) tuples.
Simulation actors emit into it when tracing is enabled; it is disabled by
default so hot loops pay only a boolean check.

Cluster plumbing: a shared recorder is handed to each node wrapped in a
:class:`PrefixedTrace` so per-node sources stay distinguishable
(``n0.core3`` vs ``n1.core3``), and the Chrome-trace exporter
(:mod:`repro.obs.chrometrace`) maps the prefix back to a process lane.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, NamedTuple, Optional


class TraceEvent(NamedTuple):
    time: float
    source: str
    kind: str
    payload: Any


class TraceRecorder:
    """Append-only trace with simple filtering helpers.

    Args:
        enabled: record events (the default for explicitly-built
            recorders; :data:`NULL_TRACE` is the disabled singleton).
        capacity: optional cap on retained events. Once reached, further
            events are counted in :attr:`dropped` instead of stored — and
            ``log`` (if given) is called once with a warning, so capped
            traces never lose data *silently*.
        log: one-line warning sink (the runner log hook shape:
            ``log(message)``), called at most once per fill-up.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.enabled = enabled
        self._capacity = capacity
        self._log = log
        self._warned = False
        self._events: List[TraceEvent] = []
        self._dropped = 0

    def record(self, time: float, source: str, kind: str, payload: Any = None) -> None:
        """Record one event if tracing is enabled and capacity allows."""
        if not self.enabled:
            return
        if self._capacity is not None and len(self._events) >= self._capacity:
            self._dropped += 1
            if not self._warned:
                self._warned = True
                if self._log is not None:
                    self._log(
                        f"trace: capacity {self._capacity} reached at "
                        f"t={time:.6f}; further events are dropped (count "
                        "them via .dropped / trace-export metadata)"
                    )
            return
        self._events.append(TraceEvent(time, source, kind, payload))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events discarded because the trace hit its capacity."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def filter(self, source: Optional[str] = None, kind: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given source and/or kind."""
        out = []
        for event in self._events:
            if source is not None and event.source != source:
                continue
            if kind is not None and event.kind != kind:
                continue
            out.append(event)
        return out

    def clear(self) -> None:
        self._events.clear()
        self._dropped = 0
        self._warned = False


class PrefixedTrace:
    """A view of a shared recorder that prefixes every source string.

    Duck-typed to the two members actors touch (``enabled`` and
    :meth:`record`), so a :class:`~repro.server.node.ServerNode` embedded
    in a cluster records ``n{i}.core{c}`` events into the cluster's one
    recorder without per-node recorder objects or hot-path string checks
    when tracing is off (``enabled`` proxies the inner recorder's flag).
    """

    __slots__ = ("_inner", "_prefix")

    def __init__(self, inner: TraceRecorder, prefix: str):
        self._inner = inner
        self._prefix = prefix

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    def record(self, time: float, source: str, kind: str, payload: Any = None) -> None:
        self._inner.record(time, self._prefix + source, kind, payload)


NULL_TRACE = TraceRecorder(enabled=False)
"""A shared disabled recorder; actors default to this to avoid None checks."""
