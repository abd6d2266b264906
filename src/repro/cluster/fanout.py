"""Request fan-out: the tail-at-scale mechanism.

A logical request that touches ``R`` leaf servers completes only when the
*slowest* leaf answers, so its latency is the max of ``R`` draws from the
per-node latency distribution — which is exactly why a p99 wakeup penalty
on one server becomes a p63 event for a 100-leaf request (Dean &
Barroso's "The Tail at Scale"). The :class:`FanoutDispatcher` implements
that composition over any set of node-like objects, plus the standard
mitigation: *hedged requests*, where leaves still outstanding after a
fixed delay are duplicated onto another node and the first answer wins.

Nodes are duck-typed: anything with ``arrive(time, on_complete)`` (accept
one request arriving now, at simulated ``time``; call
``on_complete(completion_time)`` when served) and an ``in_flight`` count
works — :class:`repro.server.node.ServerNode` in production, trivial
stubs in tests.

Hot-path discipline: a logical request costs one dispatch frame and one
balancer pick; leaves are built without an ``__init__`` frame, each goes
straight into its node's bound ``arrive`` and joins in its own
``__call__``, node loads are read with a C-level ``attrgetter``, and the
hedge timer is pushed through the engine's frame-free
:meth:`~repro.simkit.engine.Simulator.pusher`.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.cluster.balancer import LoadBalancer
from repro.errors import ConfigurationError
from repro.simkit.engine import Simulator
from repro.simkit.stats import PercentileTracker
from repro.simkit.trace import NULL_TRACE, TraceRecorder

#: Reads one node's load without a Python frame.
_in_flight = attrgetter("in_flight")


class _Logical:
    """One in-flight logical request: completes when every leaf has."""

    __slots__ = ("arrival", "remaining", "lid")

    def __init__(self, arrival: float, remaining: int):
        self.arrival = arrival
        self.remaining = remaining
        #: Span id for trace export; only written inside ``trace.enabled``
        #: branches.
        self.lid = 0


class _Leaf:
    """One leaf sub-request (possibly duplicated by a hedge).

    The leaf *is* its own completion callback (``arrive(time, leaf)``),
    so dispatching a request allocates no per-leaf closure, and the join
    runs in that one frame. It has no ``__init__``: the dispatcher sets
    every slot right after ``_Leaf()``, which enters no Python frame.

    Slots: ``dispatcher``, ``logical`` (its :class:`_Logical`), ``home``
    (the node index), ``done``, and ``ordinal``, the position within the
    logical request's leaf set; a hedged duplicate shares its original's
    ``(lid, ordinal)`` span id.
    """

    __slots__ = ("dispatcher", "logical", "home", "done", "ordinal")

    dispatcher: "FanoutDispatcher"
    logical: _Logical
    home: int
    done: bool
    ordinal: int

    def __call__(self, now: float) -> None:
        if self.done:
            return  # the hedged duplicate lost the race
        self.done = True
        logical = self.logical
        logical.remaining -= 1
        dispatcher = self.dispatcher
        trace = dispatcher.trace
        if trace.enabled:
            trace.record(now, "lb", "leaf_done", (logical.lid, self.ordinal))
        if logical.remaining == 0:
            dispatcher._latency_add(now - logical.arrival)
            dispatcher.completed += 1
            if trace.enabled:
                trace.record(now, "lb", "complete", logical.lid)


class FanoutDispatcher:
    """Splits logical requests into leaves and joins on the slowest.

    Args:
        sim: the shared simulator (supplies the clock for hedge timers).
        nodes: node-like targets (``arrive``/``in_flight``).
        balancer: a :class:`LoadBalancer` already ``setup()`` for
            ``len(nodes)``.
        fanout: leaves per logical request (distinct nodes).
        hedge_s: if set, leaves still outstanding after this many seconds
            are duplicated onto another node (first answer wins).
        trace: optional recorder for request-lifecycle spans, recorded
            under source ``lb``: ``dispatch``/``complete`` carry the
            logical id, ``leaf``/``leaf_done``/``hedge`` carry
            ``(lid, ordinal, ...)`` — a hedged duplicate shares the
            ``(lid, ordinal)`` span id of the leaf it duplicates.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence,
        balancer: LoadBalancer,
        fanout: int = 1,
        hedge_s: Optional[float] = None,
        sketch_error: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if not nodes:
            raise ConfigurationError("need at least one node")
        if not 1 <= fanout <= len(nodes):
            raise ConfigurationError(
                f"fanout must be in [1, {len(nodes)}] (nodes), got {fanout}"
            )
        if hedge_s is not None and hedge_s <= 0:
            raise ConfigurationError(f"hedge delay must be positive, got {hedge_s}")
        self.sim = sim
        self._push, self._next_seq = sim.pusher()
        self.nodes = list(nodes)
        #: Each node's ``arrive``, bound once: a leaf is sent in one call.
        self._arrive = [node.arrive for node in self.nodes]
        self.balancer = balancer
        self.fanout = fanout
        self.hedge_s = hedge_s
        #: Logical (join-on-slowest-leaf) request latency; exact by
        #: default, sketch-backed when ``sketch_error`` is set.
        self.latency = PercentileTracker(sketch_error=sketch_error)
        self._latency_add = self.latency.add
        #: Logical requests fully completed.
        self.completed = 0
        #: Duplicate leaves issued by the hedge timer.
        self.hedges_issued = 0
        self.trace = trace if trace is not None else NULL_TRACE
        #: Monotone logical-request id; advanced only while tracing.
        self._trace_seq = 0

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, arrival: float) -> None:
        """Fan one logical request arriving now, at simulated time
        ``arrival``, out over the cluster."""
        targets = self.balancer.pick(
            self.fanout, list(map(_in_flight, self.nodes))
        )
        logical = _Logical(arrival, len(targets))
        # Plain loops, not comprehensions: before CPython 3.12 each
        # comprehension is one more frame per logical request.
        leaves: List[_Leaf] = []
        for idx in targets:
            leaf = _Leaf()
            leaf.dispatcher = self
            leaf.logical = logical
            leaf.home = idx
            leaf.done = False
            leaf.ordinal = 0
            leaves.append(leaf)
        trace = self.trace
        if trace.enabled:
            lid = self._trace_seq
            self._trace_seq = lid + 1
            logical.lid = lid
            trace.record(arrival, "lb", "dispatch", (lid, tuple(targets)))
            for ordinal, leaf in enumerate(leaves):
                leaf.ordinal = ordinal
                trace.record(arrival, "lb", "leaf", (lid, ordinal, leaf.home))
        # Every leaf is recorded before any is sent, so a traced node's
        # ``arrival`` spans follow the dispatcher's ``leaf`` spans.
        arrive = self._arrive
        for leaf in leaves:
            arrive[leaf.home](arrival, leaf)
        hedge_s = self.hedge_s
        if hedge_s is not None:
            # Never cancelled, so no Event handle; one sequence number,
            # as schedule() would take. hedge_s > 0 was checked in
            # __init__, so the push cannot land in the past.
            self._push(
                (self.sim.now + hedge_s, self._next_seq(), partial(self._hedge, leaves))
            )

    def _hedge(self, leaves: Sequence[_Leaf]) -> None:
        """Duplicate still-outstanding leaves onto *other* nodes.

        A one-node cluster has no other node to duplicate onto, so no
        hedge is issued there — a same-node duplicate would only inflate
        the slow node's queue.
        """
        n_nodes = len(self.nodes)
        if n_nodes == 1:
            return
        now = self.sim.now
        for leaf in leaves:
            if leaf.done:
                continue
            # Re-read loads per leaf: each duplicate raises its target's
            # in-flight count, and a stale snapshot would let a
            # queue-aware balancer dog-pile every duplicate onto the
            # same least-loaded node.
            alt = self.balancer.pick(1, list(map(_in_flight, self.nodes)))[0]
            if alt == leaf.home:
                # Duplicating onto the same (slow) node buys nothing.
                alt = (alt + 1) % n_nodes
            self.hedges_issued += 1
            trace = self.trace
            if trace.enabled:
                trace.record(
                    now, "lb", "hedge", (leaf.logical.lid, leaf.ordinal, alt)
                )
            self._arrive[alt](now, leaf)
