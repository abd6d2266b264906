"""Discrete-event simulation engine.

The engine is a classic calendar-queue simulator: the heap holds
``(time, seq, payload)`` triples where the payload is either a bare
callback (the allocation-free fast path) or an :class:`Event` wrapper
(the cancellable path). The sequence number breaks ties deterministically
so two events scheduled for the same instant always fire in scheduling
order, which keeps every simulation reproducible for a fixed seed — and
because both paths draw from the *same* sequence counter, mixing them
never reorders anything.

Three scheduling paths:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` that can be cancelled and carries a debug label. The
  server node's rare snoop events use them for the past-time check.
- :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_at_fast`
  push the callback straight into the heap — no ``Event`` object, no
  cancellation, no label — behind the engine's own past-time check:
  the checked no-handle API for drivers and tests.
- :meth:`Simulator.pusher` hands hot callers a ``(push, next_seq)``
  pair of C-level callables, so a push enters no Python frame at all.
  The caller pushes ``(now + delay, next_seq(), callback)`` and owns the
  past-time check: it must prove ``delay >= 0`` (a constant validated at
  construction, such as a C-state latency) or test it inline. The
  node's service completions, C-state entries and wakes, the arrival
  stream and the fan-out hedge timer take this path; the fired order
  is bit-identical to the other two for the same scheduling sequence.

Bookkeeping lives in the run loop, not in the pushes. Pops happen only
in the loop, so the heap only grows inside a callback (or outside a
run): the loop checks the heap length once before its first pop and
after each callback, and :attr:`Simulator.peak_pending_events` is exact.
The bare :meth:`Simulator.run` loop counts executed events in a local
and publishes :attr:`Simulator.events_processed` when it returns.

Time is a float in **seconds**. Nanosecond-scale C-state transitions inside
a seconds-scale run are well within float64 resolution (~1e-16 relative).
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simkit import sanitizer as _sanitizer

EventCallback = Callable[[], Any]


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled.
    Cancelled events stay in the heap but are skipped when popped (lazy
    deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label")

    def __init__(
        self, time: float, seq: int, callback: EventCallback, label: str = ""
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state}, label={self.label!r})"


#: Heap entry: (time, seq, payload). seq is unique, so comparisons never
#: reach the payload (callbacks and Events need not be orderable). The
#: payload slot is ``Any`` on purpose: it holds either an :class:`Event`
#: or a bare callback, discriminated by an exact ``__class__`` test in
#: the hot loop — a ``Union`` would force casts on the most executed
#: lines in the repository.
_HeapEntry = Tuple[float, int, Any]

#: What :meth:`Simulator.pusher` hands out: pushes one heap entry.
HeapPush = Callable[[_HeapEntry], None]


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(1.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.0]
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds. A plain attribute (not a
        #: property): handlers read it once per event, and the property
        #: descriptor call was measurable at millions of events. Treat as
        #: read-only outside the engine.
        self.now = 0.0
        self._queue: List[_HeapEntry] = []
        #: The one sequence source: every path, and every pusher handed
        #: out, draws from this counter, so mixing them never reorders
        #: anything.
        self._counter = itertools.count()
        self._next_seq: Callable[[], int] = self._counter.__next__
        self._running = False
        self._events_processed = 0
        #: Heap high-water mark as of the last loop check; the property
        #: folds in the current length (see peak_pending_events).
        self._peak_pending = 0
        #: Runtime sanitizer hook. None unless REPRO_SANITIZE was on at
        #: construction; components register deep audits on it and
        #: ``run()`` dispatches to the instrumented loop when present.
        self.sanitizer: Optional[_sanitizer.SimSanitizer] = (
            _sanitizer.SimSanitizer() if _sanitizer.is_enabled() else None
        )
        # Telemetry tick hook (see set_tick_hook): None unless a
        # TimelineSampler attached, in which case run() dispatches to the
        # _run_instrumented loop. The hot loop itself is untouched, so
        # probes-off costs exactly one branch per run() call.
        self._tick_hook: Optional[Callable[[float], None]] = None
        self._tick_hz = 0.0
        self._tick_index = 0

    # -- clock ---------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far.

        The bare :meth:`run` loop publishes its count when it returns,
        so a callback reading this mid-run sees the value at the start
        of that run; :meth:`step` and the instrumented loop keep it live.
        """
        return self._events_processed

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of the event heap over the simulation's lifetime.

        Memory pressure in long runs is governed by this, not by the
        instantaneous heap length; streaming event sources keep
        it O(actors) instead of O(total events). Exact: the loops sample
        the heap length wherever it can have peaked since the last
        sample (before the first pop, after each callback, before a
        drain), and pushes made since are still in the heap.
        """
        peak = self._peak_pending
        pending = len(self._queue)
        return pending if pending > peak else peak

    def _sequences_issued(self) -> int:
        """How many sequence numbers the counter has handed out."""
        # itertools.count exposes its next value only through repr.
        return int(repr(self._counter)[6:-1])

    def pusher(self, fast: bool = True) -> Tuple[HeapPush, Callable[[], int]]:
        """Frame-free scheduling for hot callers: ``(push, next_seq)``.

        ``push((time, next_seq(), callback))`` schedules ``callback`` at
        ``time`` with no Python frame: ``push`` is ``heapq.heappush``
        bound to this simulator's heap and ``next_seq`` draws from the
        one sequence counter every scheduling path shares. The contract
        is :meth:`schedule_at_fast`'s (no cancel, no label), but the
        past-time check is the caller's: ``time`` must be ``now + delay``
        with ``delay`` a constant validated ``>= 0`` at construction, or
        the caller tests ``time < now`` inline and raises
        :class:`~repro.errors.SimulationError`.

        ``fast=False`` returns a ``push`` that wraps each entry's
        callback in an :class:`Event` under the same sequence number —
        the reference path, bit-identical in firing order.
        """
        if fast:
            return partial(heapq.heappush, self._queue), self._next_seq
        return self._push_event, self._next_seq

    def _push_event(self, entry: _HeapEntry) -> None:
        time, seq, callback = entry
        heapq.heappush(self._queue, (time, seq, Event(time, seq, callback)))

    # -- scheduling ------------------------------------------------------------
    def schedule_at(self, time: float, callback: EventCallback, label: str = "") -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Returns an :class:`Event` handle that supports cancellation. Use
        :meth:`schedule_at_fast` when the event will never be cancelled.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._next_seq()
        event = Event(time, seq, callback, label)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule(self, delay: float, callback: EventCallback, label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_at_fast(self, time: float, callback: EventCallback) -> None:
        """Allocation-free scheduling at absolute ``time``.

        Determinism contract: identical to :meth:`schedule_at` in firing
        order (both paths share one sequence counter), but the event
        cannot be cancelled and carries no label, so no :class:`Event`
        object is allocated. Use for hot-path events that always fire.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._next_seq(), callback))

    def schedule_fast(self, delay: float, callback: EventCallback) -> None:
        """Allocation-free scheduling after ``delay`` seconds from now.

        See :meth:`schedule_at_fast` for the determinism contract
        (no cancel, no label).

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._next_seq(), callback))

    # -- telemetry ticks ---------------------------------------------------------
    def set_tick_hook(self, hz: float, callback: Callable[[float], None]) -> None:
        """Install a simulated-time tick hook firing at ``hz`` Hz.

        ``callback(tick_time)`` is invoked from :meth:`run` at every tick
        boundary ``k / hz`` — *before* any event scheduled at or after
        that instant executes, so the callback observes the
        piecewise-constant simulation state as it stands at the tick.
        Ticks are not heap events: they consume no sequence numbers, do
        not count toward :attr:`events_processed` and cannot reorder
        anything, so a run with a hook attached executes the exact same
        event sequence as one without (the bit-identity contract the
        telemetry probes rely on).

        The hook must treat the simulation as read-only. Only one hook
        may be installed at a time.

        Raises:
            SimulationError: if a hook is already installed or ``hz`` is
                not a positive finite rate.
        """
        if self._tick_hook is not None:
            raise SimulationError("simulator already has a tick hook")
        if not (hz > 0) or not math.isfinite(hz):
            raise SimulationError(f"tick rate must be positive and finite, got {hz}")
        self._tick_hook = callback
        self._tick_hz = float(hz)
        # First tick = smallest k with k / hz >= now (k = 0 at time zero,
        # so the initial state is always sampled). ceil() on the product
        # can land one off either way at representation boundaries; the
        # two correction loops run at most once each.
        index = int(math.ceil(self.now * hz))
        while index / hz < self.now:
            index += 1
        while index > 0 and (index - 1) / hz >= self.now:
            index -= 1
        self._tick_index = index

    def clear_tick_hook(self) -> None:
        """Remove the telemetry tick hook. Idempotent."""
        self._tick_hook = None

    # -- execution -------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event. Returns False if queue is empty."""
        queue = self._queue
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)
        while queue:
            time, _seq, payload = heapq.heappop(queue)
            if payload.__class__ is Event:
                if payload.cancelled:
                    continue
                payload = payload.callback
            if time < self.now:
                raise SimulationError("event heap yielded an event in the past")
            self.now = time
            self._events_processed += 1
            payload()
            if len(queue) > self._peak_pending:
                self._peak_pending = len(queue)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so residency accounting that
        closes out at ``sim.now`` covers the full horizon.
        """
        if (
            self.sanitizer is not None
            or self._tick_hook is not None
            or max_events is not None
        ):
            self._run_instrumented(until, max_events)
            return
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        # This loop is the single most executed piece of code in the
        # repository: hot names are localised, the one bound check is
        # hoisted to an infinity, the counters live in locals until the
        # loop ends, and entries are popped first — the rare
        # past-the-bound entry is pushed back, which costs one heap op
        # per run() instead of a peek-then-pop pair per event.
        queue = self._queue
        heappop = heapq.heappop
        event_class = Event
        until_t = math.inf if until is None else until
        executed = 0
        peak = self._peak_pending
        if len(queue) > peak:
            peak = len(queue)
        try:
            while queue:
                entry = heappop(queue)
                time, _seq, payload = entry
                if payload.__class__ is event_class:
                    if payload.cancelled:
                        continue
                    payload = payload.callback
                if time > until_t:
                    heapq.heappush(queue, entry)
                    break
                self.now = time
                executed += 1
                payload()
                # No pop happens inside a callback, so the heap peaks at
                # a callback's end.
                if len(queue) > peak:
                    peak = len(queue)
        finally:
            self._events_processed += executed
            if peak > self._peak_pending:
                self._peak_pending = peak
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    def _run_instrumented(
        self, until: Optional[float], max_events: Optional[int]
    ) -> None:
        """Twin of :meth:`run` with the sanitizer, the tick hook or a
        ``max_events`` budget armed.

        :meth:`run` dispatches here once per call when any of them is
        present, so the bare loop tests only ``until``. Event execution
        order, clock updates and counters are identical to :meth:`run`
        (``events_processed`` is kept live here), so a run that raises no
        violation is bit-identical to a bare one.

        Sanitizer (SAN001 + deep audits): per pop it verifies strictly
        increasing ``(time, seq)`` heap order (which subsumes monotonic
        event time and unique sequence numbers), that the sequence number
        was actually issued by this simulator's counter, and that no
        event fires behind the clock — the check the bare loop
        deliberately omits. ``(last_time, last_seq)`` reset per call: a
        past-the-bound entry pushed back here is legitimately re-popped
        by the next run.

        Ticks: ticks at ``k / hz`` fire before any event at or after that
        instant; they are not heap events, so the event sequence,
        sequence numbers and counters match an unticked run. Remaining
        ticks up to ``until`` fire after the last event so a
        ``run(until=horizon)`` samples the full horizon; when the
        ``max_events`` budget stops a run without ``until``, pending
        ticks stay pending for the next call.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        san = self.sanitizer
        hook = self._tick_hook
        hz = self._tick_hz
        index = self._tick_index
        queue = self._queue
        heappop = heapq.heappop
        event_class = Event
        until_t = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)
        # Sequence numbers below this were issued; refreshed from the
        # counter only when a popped seq reaches it (it only grows).
        issued = self._sequences_issued() if san is not None else 0
        last_time = -math.inf
        last_seq = -1
        try:
            while queue:
                entry = heappop(queue)
                time = entry[0]
                if san is not None:
                    seq = entry[1]
                    if time < last_time or (
                        time == last_time and seq <= last_seq
                    ):
                        raise _sanitizer.violation(
                            "SAN001", "simkit.engine",
                            f"heap yielded (t={time!r}, seq={seq}) after "
                            f"(t={last_time!r}, seq={last_seq}): heap order "
                            "corrupted (non-monotonic event time or "
                            "duplicate sequence)",
                        )
                    if seq >= issued:
                        issued = self._sequences_issued()
                    if seq < 0 or seq >= issued:
                        raise _sanitizer.violation(
                            "SAN001", "simkit.engine",
                            f"popped sequence number {seq} was never issued "
                            f"(counter at {issued}): the heap was "
                            "tampered with outside the scheduling API",
                        )
                    if time < self.now:
                        raise _sanitizer.violation(
                            "SAN001", "simkit.engine",
                            f"event at t={time!r} fires behind the clock "
                            f"(now={self.now!r}): executing it would move "
                            "simulation time backwards",
                        )
                payload = entry[2]
                if payload.__class__ is event_class:
                    if payload.cancelled:
                        continue
                    payload = payload.callback
                if time > until_t or executed >= budget:
                    heapq.heappush(queue, entry)
                    break
                if hook is not None:
                    tick = index / hz
                    while tick <= time:
                        hook(tick)
                        index += 1
                        tick = index / hz
                if san is not None:
                    last_time = time
                    last_seq = seq
                self.now = time
                executed += 1
                self._events_processed += 1
                payload()
                if len(queue) > self._peak_pending:
                    self._peak_pending = len(queue)
                if san is not None:
                    san.tick()
        finally:
            self._tick_index = index
            self._running = False
        if until is not None:
            if hook is not None:
                tick = index / hz
                while tick <= until_t:
                    hook(tick)
                    index += 1
                    tick = index / hz
                self._tick_index = index
            if self.now < until:
                self.now = until
        if san is not None:
            san.flush()

    def drain(self) -> None:
        """Discard all pending events without executing them."""
        queue = self._queue
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)
        queue.clear()
