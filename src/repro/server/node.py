"""The simulated latency-critical server.

One :class:`ServerNode` models the paper's testbed server: N cores
(10 physical per socket on the Xeon Silver 4114), an open-loop request
stream dispatched across them, per-core FIFO queues (the paper pins
service threads to cores), an idle governor per core, a shared turbo
budget, and background snoop traffic.

Core lifecycle (per core)::

    ACTIVE ──queue empties──> ENTERING ──entry done──> IDLE (Cx)
      ^                                                   │
      └── WAKING <─────────── arrival (pays exit latency) ┘

Arrivals during ENTERING must first let the entry complete, then pay the
exit latency — the worst case the paper's Fig 8c "worst case" curve
charges on every query. Request latency is measured server-side
(completion - arrival) with the constant network component added for
end-to-end views.

Hot-path discipline: the per-event code allocates nothing beyond the
engine's heap entry — callbacks are prebound per core at construction,
requests are recycled through a free list, and service completions,
C-state entries and wakes (never cancelled) are pushed through the
engine's :meth:`~repro.simkit.engine.Simulator.pusher` without entering
an engine frame. Each push is ``(now + delay, next_seq(), callback)``:
C-state latencies are validated ``>= 0`` when the state is built, and a
service draw is checked inline, which keeps the engine's past-time
guarantee. The ``fast_path=False`` reference mode gets a pusher that
wraps every entry in an :class:`~repro.simkit.engine.Event` under the
same sequence number, so the golden bit-identity tests can replay both
and compare. Snoop bursts (a few hundred per core-second) go through the
engine's checked :meth:`~repro.simkit.engine.Simulator.schedule_at` /
:meth:`~repro.simkit.engine.Simulator.schedule` in both modes: their
gaps are sampled, so the engine's own past-time check guards them, and
they draw from the same sequence counter, so the order is unchanged.

The governor makes one call per idle period. A wake stores the idle span
that just ended on the core's runtime; the next idle entry hands it to
:meth:`~repro.governor.idle.IdleGovernor.decide`, which folds it into
the history and selects the state. Per core an observation always comes
between two choices, so deferring it changes nothing.

Each C-state transition is one call into the package
(:meth:`~repro.uarch.package.Package.enter_idle` /
:meth:`~repro.uarch.package.Package.wake`), which updates the core, the
package power total and the turbo tank together; the reference mode
keeps the original per-object chain (core transition, package power
read, turbo update and grant, DVFS) that the fused calls must match.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.core.cstates import CState
from repro.errors import ConfigurationError, SimulationError
from repro.governor.idle import IdleGovernor, MenuGovernor
from repro.server.config import ServerConfiguration
from repro.server.metrics import RunResult
from repro.simkit import sanitizer as _sanitizer
from repro.simkit.engine import Simulator
from repro.simkit.stats import PercentileTracker
from repro.simkit.trace import NULL_TRACE, TraceRecorder
from repro.uarch.coherence import SnoopModel, SnoopTrafficGenerator
from repro.uarch.core import INV_POWER_SCALE as _INV_POWER_SCALE
from repro.uarch.core import Core
from repro.uarch.package import Package, PackageConfig
from repro.uarch.turbo import TurboBudget, TurboConfig
from repro.workloads.base import Workload
from repro.workloads.loadgen import ArrivalStream, LoadGenerator, OpenLoopPoisson


class CoreMode(Enum):
    ACTIVE = "active"
    ENTERING = "entering"
    IDLE = "idle"
    WAKING = "waking"


# Module-level aliases: the mode tests in the arrival/wake handlers are
# identity comparisons, and a global load is cheaper than an Enum class
# attribute lookup at millions of events.
_ACTIVE = CoreMode.ACTIVE
_ENTERING = CoreMode.ENTERING
_IDLE = CoreMode.IDLE
_WAKING = CoreMode.WAKING


def _negative_service(delay: float) -> SimulationError:
    """The engine's past-time error, for a negative service draw."""
    return SimulationError(f"cannot schedule event with negative delay {delay}")


class _Request:
    """One in-flight request. Instances are recycled via the node's free
    list, so a steady-state run allocates O(max in-flight) of them total
    rather than one per arrival."""

    __slots__ = ("arrival", "on_complete", "trace_id")

    def __init__(self, arrival: float = 0.0,
                 on_complete: Optional[Callable[[float], None]] = None):
        self.arrival = arrival
        #: Cluster hook: called with the completion time when the request
        #: finishes service (see :meth:`ServerNode.arrive`).
        self.on_complete = on_complete
        #: Span id for trace export; only written inside ``trace.enabled``
        #: branches (stale values on recycled requests are never read).
        self.trace_id = 0


class _CoreRuntime:
    """Mutable per-core simulation state."""

    __slots__ = (
        "core", "queue", "governor", "mode", "busy", "idle_since",
        "observed", "wake_pending", "snoop_token", "in_service",
        "entering_state", "finish_cb", "entry_cb", "wake_cb", "snoop_cb",
    )

    def __init__(self, core: Core, governor: IdleGovernor):
        self.core = core
        self.queue: Deque[_Request] = deque()
        self.governor = governor
        self.mode = _ACTIVE
        self.busy = False
        self.idle_since = 0.0
        #: The idle span that ended at the last wake, not yet shown to
        #: the governor (None before the first): the next idle entry
        #: passes it to ``governor.decide``.
        self.observed: Optional[float] = None
        self.wake_pending = False
        self.snoop_token = 0
        #: Request currently in service (cores serve one at a time), read
        #: back by the prebound finish callback.
        self.in_service: Optional[_Request] = None
        #: C-state chosen by the governor for the in-flight entry, read
        #: back by the prebound entry-complete callback.
        self.entering_state: Optional[CState] = None
        # Prebound per-core event callbacks (set by the node) — scheduling
        # a service completion, C-state entry or wake allocates no closure.
        self.finish_cb: Callable[[], None] = None
        self.entry_cb: Callable[[], None] = None
        self.wake_cb: Callable[[], None] = None
        self.snoop_cb: Callable[[], None] = None


class ServerNode:
    """Event-driven model of one latency-critical server.

    ``fast_path`` selects the allocation-free scheduling path (the
    default). ``False`` replays the identical event sequence through the
    cancellable :class:`~repro.simkit.engine.Event` path — slower, used
    by the bit-identity tests as the reference.
    """

    def __init__(
        self,
        workload: Workload,
        configuration: ServerConfiguration,
        qps: float,
        cores: int = 10,
        horizon: float = 0.5,
        seed: int = 42,
        uncore_watts: float = 38.0,
        snoops_enabled: bool = True,
        turbo_config: Optional[TurboConfig] = None,
        governor_factory=None,
        trace: Optional[TraceRecorder] = None,
        sim: Optional[Simulator] = None,
        external_arrivals: bool = False,
        fast_path: bool = True,
        sketch_error: Optional[float] = None,
        loadgen: Optional[LoadGenerator] = None,
        telemetry_hz: Optional[float] = None,
    ):
        if cores <= 0:
            raise ConfigurationError("need at least one core")
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        self.workload = workload
        self.configuration = configuration
        self.qps = qps
        self.n_cores = cores
        self.horizon = horizon
        self.seed = seed
        #: A cluster passes its shared simulator so K nodes advance one
        #: clock; standalone nodes own a private one.
        self.sim = sim if sim is not None else Simulator()
        #: When True the node never arms its own load generator: requests
        #: arrive solely through :meth:`arrive` (cluster dispatch).
        self.external_arrivals = external_arrivals
        self.fast_path = fast_path
        # The hot events go through the engine's pusher; the reference
        # mode's pusher takes the same sequence numbers in the same
        # order, so event order is identical.
        self._push, self._next_seq = self.sim.pusher(fast_path)
        self._dispatch_rng = random.Random(seed)
        # Core dispatch replicates Random._randbelow_with_getrandbits
        # inline (draw cores.bit_length() bits, reject >= cores): the
        # identical bit stream randrange(cores) consumes, without the two
        # Python frames per arrival. Guarded by the golden digest tests.
        self._getrandbits = self._dispatch_rng.getrandbits
        self._core_bits = cores.bit_length()
        # An explicit loadgen overrides the default Poisson stream (the
        # sharded round-robin path feeds Erlang-thinned arrivals here);
        # the default keeps the seed + 1 derivation bit-identical.
        self._loadgen: LoadGenerator = (
            loadgen if loadgen is not None else OpenLoopPoisson(qps, seed=seed + 1)
        )
        self._sample_service = workload.service.sampler()
        self._frequency_derate = configuration.frequency_derate

        catalog = configuration.catalog
        self._catalog = catalog
        make_governor = governor_factory or (lambda: MenuGovernor())
        self._runtimes: List[_CoreRuntime] = [
            _CoreRuntime(Core(i, catalog), make_governor()) for i in range(cores)
        ]
        for index, runtime in enumerate(self._runtimes):
            # functools.partial dispatches at C level: firing one of these
            # costs a single Python frame (the handler itself).
            runtime.finish_cb = partial(self._finish_service, runtime)
            runtime.entry_cb = partial(self._entry_complete, runtime)
            runtime.wake_cb = partial(self._wake_complete, runtime)
            runtime.snoop_cb = partial(self._on_snoop, index)
        self.package = Package(
            [rt.core for rt in self._runtimes],
            PackageConfig(cores=cores, uncore_watts=uncore_watts),
            turbo=TurboBudget(turbo_config or TurboConfig(), enabled=configuration.turbo_enabled),
            incremental=fast_path,
        )
        self.snoop_model = SnoopModel()
        self._snoops_enabled = snoops_enabled and workload.snoop_rate_hz > 0
        self._snoop_gens = [
            SnoopTrafficGenerator(workload.snoop_rate_hz, seed=seed + 100 + i)
            for i in range(cores)
        ]
        # sketch_error=None keeps exact percentiles (the default for all
        # single-node paths); a float selects the bounded-memory
        # mergeable DDSketch backend for fleet-scale runs.
        self.latency = PercentileTracker(sketch_error=sketch_error)
        self._latency_add = self.latency.add
        self.completed = 0
        self.snoops_served = 0
        #: Requests accepted but not yet finished (queued + in service);
        #: the load signal cluster balancers read.
        self.in_flight = 0
        self.trace = trace if trace is not None else NULL_TRACE
        #: Monotone id stamped on traced requests (advanced only inside
        #: ``trace.enabled`` branches, so untraced runs never touch it).
        self._trace_seq = 0
        #: Telemetry sampling rate in simulated Hz. Only standalone nodes
        #: (which own their simulator) arm a sampler in :meth:`run`;
        #: cluster-embedded nodes are sampled by the cluster's sampler on
        #: the shared simulator.
        self.telemetry_hz = telemetry_hz
        #: Recycled :class:`_Request` instances.
        self._request_pool: List[_Request] = []
        san = self.sim.sanitizer
        if san is not None:
            # SAN002: the free list rejects double-frees. SAN003: the
            # periodic audit re-sums core power against the fixed-point
            # accumulator. Both only exist under REPRO_SANITIZE, so the
            # unsanitized hot path keeps the plain list and zero audits.
            self._request_pool = _sanitizer.CheckedFreeList()
            san.add_audit(self._audit_package_power)
        self._pool_append = self._request_pool.append
        self._turbo = self.package.turbo
        if fast_path:
            self._enter_idle = self.package.enter_idle
            self._wake = self.package.wake
        else:
            self._enter_idle = self._reference_enter_idle
            self._wake = self._reference_wake

    def _reference_enter_idle(self, core: Core, time: float, state: CState) -> None:
        """Unfused twin of :meth:`Package.enter_idle` (reference mode)."""
        core.enter_idle(time, state)
        self._turbo.update(time, self.package.package_power)

    def _reference_wake(self, core: Core, time: float) -> float:
        """Unfused twin of :meth:`Package.wake` (reference mode)."""
        exit_latency = core.wake(time)
        frequency = self._turbo.frequency_for_burst(time, self.package.package_power)
        if frequency is not core.frequency:
            # Same-frequency DVFS is an exact no-op (zero-span accrual on
            # an existing key, unchanged power): skip the call entirely.
            core.set_frequency(time, frequency)
        return exit_latency

    def _audit_package_power(self) -> None:
        """SAN003 deep audit: fixed-point accumulator vs full re-sum.

        The accumulator is exact (integer deltas in 2**-80 W units), so
        the tolerance only covers the float summation order of the
        reference sum — any real dropped or double-counted delta is
        orders of magnitude above it.
        """
        reference = 0.0
        for core in self.package.cores:
            reference += core.current_power
        incremental = self.package._core_power_int * _INV_POWER_SCALE
        bound = 1e-9 * max(1.0, abs(reference))
        if abs(incremental - reference) > bound:
            raise _sanitizer.violation(
                "SAN003", "uarch.package",
                f"incremental core power {incremental!r} W differs from "
                f"the re-summed reference {reference!r} W beyond the "
                f"documented bound ({bound:.3e} W): a power delta was "
                "dropped or double-counted",
            )

    # -- wiring ------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        """Arm the lazy arrival stream (see :class:`ArrivalStream`): the
        heap holds O(cores + in-flight) events instead of O(qps * horizon).

        The stream is built here, not in ``__init__``, so a
        ``_loadgen`` swapped in before :meth:`run` (tests exercising
        misbehaving generators do this) takes effect.
        """
        ArrivalStream(
            self.sim, self._loadgen, self.horizon, self.arrive,
            fast_path=self.fast_path,
        ).start()

    def _arm_snoops(self) -> None:
        if not self._snoops_enabled:
            return
        for idx in range(self.n_cores):
            self._schedule_next_snoop(idx)

    def _schedule_next_snoop(self, idx: int) -> None:
        delay = self._snoop_gens[idx].next_arrival_delay()
        if delay is None:
            return
        when = self.sim.now + delay
        if when >= self.horizon:
            return
        self.sim.schedule_at(when, self._runtimes[idx].snoop_cb)

    # -- request path ------------------------------------------------------------
    def arrive(
        self,
        arrival: float,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Accept one request arriving now, at simulated time ``arrival``.

        The node's own arrival stream calls this with the arrival time
        alone; cluster dispatchers pass ``on_complete``, which fires with
        the completion time when the request finishes service (never for
        requests still in flight at the horizon, which — as in the
        standalone node — simply don't count). ``arrival`` must be the
        simulator's current time.
        """
        n_cores = self.n_cores
        index = self._getrandbits(self._core_bits)
        while index >= n_cores:
            index = self._getrandbits(self._core_bits)
        rt = self._runtimes[index]
        self.in_flight += 1
        pool = self._request_pool
        if pool:
            request = pool.pop()
            request.arrival = arrival
            request.on_complete = on_complete
        else:
            request = _Request(arrival, on_complete)
        trace = self.trace
        if trace.enabled:
            span = self._trace_seq
            self._trace_seq = span + 1
            request.trace_id = span
            trace.record(arrival, f"core{index}", "arrival", span)
        mode = rt.mode
        if mode is _ACTIVE:
            if rt.busy:
                rt.queue.append(request)
            else:
                # Start service inline. An active core that is not busy
                # has an empty queue (a wake or a finish that finds work
                # keeps it busy), so this request is next in FIFO order.
                rt.busy = True
                rt.in_service = request
                delay = self._sample_service(rt.core._frequency, self._frequency_derate)
                if delay < 0:
                    raise _negative_service(delay)
                self._push((self.sim.now + delay, self._next_seq(), rt.finish_cb))
            return
        rt.queue.append(request)
        if mode is _IDLE:
            # _begin_wake, inlined: the mode test above is its check.
            rt.observed = arrival - rt.idle_since
            rt.snoop_token += 1  # invalidate in-flight snoop service
            core = rt.core
            if trace.enabled:
                trace.record(arrival, f"core{index}", "wake", core.state.name)
            exit_latency = self._wake(core, arrival)
            rt.mode = _WAKING
            self._push((self.sim.now + exit_latency, self._next_seq(), rt.wake_cb))
        elif mode is _ENTERING:
            rt.wake_pending = True
        # WAKING: the pending wake will drain the queue.

    def _finish_service(self, rt: _CoreRuntime) -> None:
        request = rt.in_service
        rt.in_service = None
        arrival = request.arrival
        on_complete = request.on_complete
        request.on_complete = None
        now = self.sim.now
        trace = self.trace
        if trace.enabled:
            trace.record(
                now, f"core{rt.core.core_id}", "complete", request.trace_id
            )
        self._pool_append(request)
        self._latency_add(now - arrival)
        self.completed += 1
        self.in_flight -= 1
        if on_complete is not None:
            # Fire while the core still reads busy, so a callback that
            # synchronously arrives back at this node queues safely.
            on_complete(now)
        queue = rt.queue
        if queue:
            # Start the next request inline; the core stays busy.
            rt.in_service = queue.popleft()
            delay = self._sample_service(rt.core._frequency, self._frequency_derate)
            if delay < 0:
                raise _negative_service(delay)
            self._push((now + delay, self._next_seq(), rt.finish_cb))
        else:
            # _go_idle, inlined: the governor picks the state to enter.
            rt.busy = False
            state = rt.governor.decide(self._catalog, rt.observed)
            rt.mode = _ENTERING
            rt.idle_since = now
            rt.wake_pending = False
            rt.entering_state = state
            self._push((now + state.entry_latency, self._next_seq(), rt.entry_cb))

    # -- idle path -----------------------------------------------------------------
    def _go_idle(self, rt: _CoreRuntime) -> None:
        state = rt.governor.decide(self._catalog, rt.observed)
        now = self.sim.now
        rt.mode = _ENTERING
        rt.idle_since = now
        rt.wake_pending = False
        rt.entering_state = state
        self._push((now + state.entry_latency, self._next_seq(), rt.entry_cb))

    def _entry_complete(self, rt: _CoreRuntime) -> None:
        state = rt.entering_state
        now = self.sim.now
        self._enter_idle(rt.core, now, state)
        rt.mode = _IDLE
        trace = self.trace
        if trace.enabled:
            trace.record(now, f"core{rt.core.core_id}", "enter_idle", state.name)
        if rt.wake_pending or rt.queue:
            self._begin_wake(rt)

    def _begin_wake(self, rt: _CoreRuntime) -> None:
        if rt.mode is not _IDLE:
            raise SimulationError(f"cannot wake core in mode {rt.mode}")
        now = self.sim.now
        rt.observed = now - rt.idle_since
        rt.snoop_token += 1  # invalidate in-flight snoop service
        trace = self.trace
        if trace.enabled:
            trace.record(now, f"core{rt.core.core_id}", "wake", rt.core.state.name)
        exit_latency = self._wake(rt.core, now)
        rt.mode = _WAKING
        self._push((now + exit_latency, self._next_seq(), rt.wake_cb))

    def _wake_complete(self, rt: _CoreRuntime) -> None:
        rt.mode = _ACTIVE
        queue = rt.queue
        if not queue:
            # Spurious wake (race with service completion): go back idle.
            self._go_idle(rt)
        elif not rt.busy:
            # _start_service, inlined: a wake almost always finds work.
            rt.busy = True
            rt.in_service = queue.popleft()
            delay = self._sample_service(rt.core._frequency, self._frequency_derate)
            if delay < 0:
                raise _negative_service(delay)
            self._push((self.sim.now + delay, self._next_seq(), rt.finish_cb))

    # -- snoop path -----------------------------------------------------------------
    def _on_snoop(self, idx: int) -> None:
        rt = self._runtimes[idx]
        state = rt.core.state
        if rt.mode is _IDLE and self.snoop_model.sees_snoops(state.name):
            delta = self.snoop_model.power_delta_for(state.name)
            rt.core.begin_snoop_service(self.sim.now, delta)
            token = rt.snoop_token
            duration = self.snoop_model.service_time + state.snoop_wake_overhead
            self.sim.schedule(duration, lambda: self._end_snoop(rt, token))
            self.snoops_served += 1
            trace = self.trace
            if trace.enabled:
                trace.record(
                    self.sim.now, f"core{rt.core.core_id}", "snoop", state.name
                )
        self._schedule_next_snoop(idx)

    def _end_snoop(self, rt: _CoreRuntime, token: int) -> None:
        # A wake may have raced us; only restore idle power if still idle.
        if rt.mode is _IDLE and rt.snoop_token == token:
            rt.core.end_snoop_service(self.sim.now)

    # -- telemetry ------------------------------------------------------------------
    def telemetry_sample(self, time: float) -> Dict[str, float]:
        """Instantaneous observables for the telemetry probes (read-only).

        Reads the package's O(1) incremental power accounting, the
        non-mutating mid-run energy integral, per-core C-state occupancy
        and queue depths. Called from the engine tick hook, so it must
        never mutate simulation state — in particular it must not touch
        ``Core.snapshot`` (which closes accounting).
        """
        queued = 0
        frequency_hz = 0.0
        counts: Dict[str, int] = {}
        for rt in self._runtimes:
            queued += len(rt.queue)
            core = rt.core
            frequency_hz += core.frequency.frequency_hz
            name = core.state.name
            counts[name] = counts.get(name, 0) + 1
        package_power, core_power, energy_j = self.package.telemetry_power(time)
        row = {
            "package_power": package_power,
            "core_power": core_power,
            "energy_j": energy_j,
            "in_flight": float(self.in_flight),
            "queued": float(queued),
            "frequency_ghz": frequency_hz / (1e9 * self.n_cores),
            "completed": float(self.completed),
        }
        # sorted(): series layout must be a function of the state names,
        # not of per-run dict insertion history (DET005 discipline).
        for name in sorted(counts):
            row["cstate." + name] = float(counts[name])
        return row

    # -- run ------------------------------------------------------------------------
    def start(self) -> None:
        """Arm this node's event sources on its simulator.

        Standalone nodes arm the arrival stream and snoop traffic; nodes
        embedded in a cluster (``external_arrivals=True``) arm snoops
        only — logical arrivals reach them through :meth:`arrive`.
        """
        if not self.external_arrivals:
            self._schedule_arrivals()
        self._arm_snoops()

    def run(self) -> RunResult:
        """Simulate the full horizon and aggregate the observables."""
        self.start()
        sampler = None
        if self.telemetry_hz is not None:
            from repro.obs.timeline import TimelineSampler

            sampler = TimelineSampler(self.telemetry_hz, [self])
            sampler.attach(self.sim)
        self.sim.run(until=self.horizon)
        result = self.collect()
        if sampler is not None:
            self.sim.clear_tick_hook()
            result.timeline = sampler.finish()
        return result

    def collect(self) -> RunResult:
        """Aggregate the observables after the simulator has run."""
        residency: Dict[str, float] = {}
        transitions: Dict[str, float] = {}
        energy = 0.0
        for rt in self._runtimes:
            stats = rt.core.snapshot(self.horizon)
            # sorted(): per-key accumulation order must be a function of
            # the state names, not of per-core dict insertion history
            # (DET005 — bit-identity across executors).
            for name, seconds in sorted(stats.residency_seconds.items()):
                residency[name] = residency.get(name, 0.0) + seconds
            for name, count in sorted(stats.transitions.items()):
                transitions[name] = transitions.get(name, 0.0) + count
            energy += stats.energy_joules

        total_core_time = self.horizon * self.n_cores
        residency = {k: v / total_core_time for k, v in residency.items()}
        transitions_ps = {
            k: v / (self.horizon * self.n_cores) for k, v in transitions.items()
        }
        avg_core_power = energy / total_core_time
        package_power = (
            avg_core_power * self.n_cores + self.package.config.uncore_watts
        )
        return RunResult(
            config_name=self.configuration.name,
            workload_name=self.workload.name,
            qps=self.qps,
            horizon=self.horizon,
            cores=self.n_cores,
            residency=residency,
            transitions_per_second=transitions_ps,
            avg_core_power=avg_core_power,
            package_power=package_power,
            server_latency=self.latency,
            completed=self.completed,
            turbo_grant_rate=self.package.turbo.grant_rate,
            network_latency=self.workload.network_latency,
            snoops_served=self.snoops_served,
            events_processed=self.sim.events_processed,
            peak_pending_events=self.sim.peak_pending_events,
        )


def simulate(
    workload: Workload,
    configuration: ServerConfiguration,
    qps: float,
    cores: int = 10,
    horizon: float = 0.5,
    seed: int = 42,
    **kwargs,
) -> RunResult:
    """One-call convenience wrapper: build a node and run it."""
    node = ServerNode(
        workload=workload,
        configuration=configuration,
        qps=qps,
        cores=cores,
        horizon=horizon,
        seed=seed,
        **kwargs,
    )
    return node.run()
