"""Open-loop load generation (Mutilate-style).

The paper drives Memcached with the Mutilate load generator configured to
recreate Facebook's ETC workload: open-loop (arrivals do not wait for
completions — the right model for measuring tail latency) with Poisson
arrivals at a target queries-per-second rate.

:class:`OpenLoopPoisson` produces the arrival schedule; the server node
consumes it event by event.
"""

from __future__ import annotations

from math import log
from typing import Callable, Iterator

from repro.errors import SimulationError, WorkloadError
from repro.simkit.distributions import Exponential


class LoadGenerator:
    """Interface: an arrival-time iterator."""

    def arrivals(self, horizon: float) -> Iterator[float]:
        """Yield absolute arrival times in [0, horizon), non-decreasing.

        Consumers schedule arrivals one at a time (streaming), so times
        must not go backwards; an out-of-order yield fails the run with a
        :class:`~repro.errors.SimulationError`. Times at or past
        ``horizon`` are ignored.
        """
        raise NotImplementedError


class ArrivalStream:
    """Streams a load generator's arrivals through a simulator lazily.

    One in-flight arrival event at a time: each event schedules its
    successor when it fires, so the heap holds O(1) arrival events
    instead of the O(qps * horizon) that eager pre-scheduling would pin
    (40 000 events for a 100 KQPS x 0.4 s run). The successor is chained
    *before* ``on_arrival`` runs so, on an exact time tie with events the
    dispatch spawns, the next arrival still fires first.

    Both the standalone :class:`~repro.server.node.ServerNode` and the
    cluster's logical request stream consume arrivals through this one
    class — the one-node-cluster bit-identity guarantee depends on both
    replaying the exact same event sequence, so the chaining logic must
    not be duplicated.

    The stream holds one in-flight arrival, so it schedules through one
    prebound callback and remembers the pending arrival time on itself —
    no per-arrival closure — and pushes it through the engine's
    :meth:`~repro.simkit.engine.Simulator.pusher`, testing inline that a
    generator's time is not in the past. ``fast_path=False`` takes the
    pusher that wraps each entry in an Event (the bit-identity reference
    mode); either way the scheduling order, and therefore the event
    sequence, is identical.
    """

    def __init__(
        self,
        sim,
        loadgen: LoadGenerator,
        horizon: float,
        on_arrival: Callable[[float], None],
        fast_path: bool = True,
    ):
        self._sim = sim
        self._loadgen = loadgen
        self._horizon = horizon
        self._on_arrival = on_arrival
        self._iter: Iterator[float] = iter(())
        self._next_arrival = 0.0
        self._fired_cb = self._fired
        self._push, self._next_seq = sim.pusher(fast_path)

    def start(self) -> None:
        """Arm the stream: schedule the first in-window arrival."""
        self._iter = self._loadgen.arrivals(self._horizon)
        horizon = self._horizon
        now = self._sim.now
        for t in self._iter:
            # Generators bound arrivals to [0, horizon), but guard anyway
            # so a custom LoadGenerator cannot fire past the accounting
            # window; keep consuming in case later yields are in-window.
            if t >= horizon:
                continue
            if t < now:
                raise _behind_clock(t, now)
            self._next_arrival = t
            self._push((t, self._next_seq(), self._fired_cb))
            return

    def _fired(self) -> None:
        # Read the pending arrival *before* chaining (chaining overwrites
        # it). Chain the successor before dispatching so, on an exact time
        # tie with the events this dispatch spawns, the next arrival still
        # fires first. (Ties against events scheduled by *earlier*
        # dispatches are resolved by scheduling order, as with any event
        # source; the stochastic float-time workloads here never tie.)
        # The chaining loop is start()'s, inlined: one frame per arrival.
        # This event fired at its own time, so ``arrival`` is the clock.
        arrival = self._next_arrival
        horizon = self._horizon
        for t in self._iter:
            if t >= horizon:
                continue
            if t < arrival:
                raise _behind_clock(t, arrival)
            self._next_arrival = t
            self._push((t, self._next_seq(), self._fired_cb))
            break
        self._on_arrival(arrival)


def _behind_clock(time: float, now: float) -> SimulationError:
    """The engine's past-time error, for an out-of-order arrival."""
    return SimulationError(f"cannot schedule event at t={time} before now={now}")


class OpenLoopPoisson(LoadGenerator):
    """Open-loop Poisson arrivals at a fixed aggregate rate.

    Args:
        qps: aggregate arrival rate (queries per second).
        seed: RNG seed for the inter-arrival stream.
    """

    def __init__(self, qps: float, seed: int = 1):
        if qps <= 0:
            raise WorkloadError(f"qps must be positive, got {qps}")
        self._interarrival = Exponential(1.0 / qps, seed=seed)

    def arrivals(self, horizon: float) -> Iterator[float]:
        if horizon <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon}")
        # Random.expovariate, inlined: divide by the rate (multiplying by
        # the mean gives different bits).
        random_, lambd = self._interarrival.inline_params()
        t = -log(1.0 - random_()) / lambd
        while t < horizon:
            yield t
            t += -log(1.0 - random_()) / lambd


class RoundRobinThinned(LoadGenerator):
    """Node ``index``'s share of a round-robin-split Poisson stream.

    A round-robin front end hands arrival ``j`` of a rate-``total_qps``
    Poisson process to node ``j mod nodes``, so one node sees every
    ``nodes``-th arrival: its interarrival times are Erlang(``nodes``) —
    the sum of ``nodes`` exponentials — sampled directly via
    ``gammavariate(nodes, 1/total_qps)``. Node ``index``'s first arrival
    is global arrival ``index + 1``, i.e. Gamma(``index + 1``), which
    preserves the phase stagger of the cursor.

    Each node's *marginal* arrival process is exact. What the
    split-stream model gives up is the cross-node coupling of the shared
    cursor (round-robin interleaves nodes deterministically; independent
    Erlang streams only do so in distribution) — the documented
    approximation behind sharded round-robin execution
    (:mod:`repro.cluster.sharding`). Random balancing needs no such
    class: uniform thinning of a Poisson process yields independent
    Poisson streams exactly.
    """

    def __init__(self, total_qps: float, nodes: int, index: int, seed: int = 1):
        if total_qps <= 0:
            raise WorkloadError(f"total_qps must be positive, got {total_qps}")
        if nodes <= 0:
            raise WorkloadError(f"nodes must be positive, got {nodes}")
        if not 0 <= index < nodes:
            raise WorkloadError(
                f"node index must be in [0, {nodes}), got {index}"
            )
        self._nodes = nodes
        self._index = index
        self._scale = 1.0 / total_qps
        import random as _random

        self._gamma = _random.Random(seed).gammavariate

    def arrivals(self, horizon: float) -> Iterator[float]:
        if horizon <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon}")
        gamma = self._gamma
        scale = self._scale
        nodes = self._nodes
        t = gamma(self._index + 1, scale)
        while t < horizon:
            yield t
            t += gamma(nodes, scale)


class BurstyLoadGenerator(LoadGenerator):
    """ON/OFF modulated Poisson process (microservice-style burstiness).

    During ON periods traffic flows at ``peak_qps``; OFF periods are
    silent. Average rate = peak_qps * duty_cycle. Used by ablation
    studies of governor behaviour under irregular request streams.
    """

    def __init__(
        self,
        peak_qps: float,
        on_mean: float,
        off_mean: float,
        seed: int = 1,
    ):
        if peak_qps <= 0:
            raise WorkloadError("peak_qps must be positive")
        if on_mean <= 0 or off_mean <= 0:
            raise WorkloadError("ON/OFF period means must be positive")
        self._interarrival = Exponential(1.0 / peak_qps, seed=seed)
        self._on = Exponential(on_mean, seed=seed + 1)
        self._off = Exponential(off_mean, seed=seed + 2)

    def arrivals(self, horizon: float) -> Iterator[float]:
        if horizon <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon}")
        t = 0.0
        while t < horizon:
            on_end = t + self._on.sample()
            arrival = t + self._interarrival.sample()
            while arrival < min(on_end, horizon):
                yield arrival
                arrival += self._interarrival.sample()
            t = on_end + self._off.sample()
