"""Observability: trace a simulation and analyse idle-state behaviour.

Run with::

    python examples/trace_observability.py

Attaches a :class:`~repro.simkit.trace.TraceRecorder` to a server node,
then mines the trace for the things a power engineer would ask of a real
system's residency counters: per-core transition rates, idle-interval
length distribution and governor decisions per state.
"""

from collections import Counter, defaultdict

from repro.server import ServerNode, named_configuration
from repro.simkit.stats import Histogram
from repro.simkit.trace import TraceRecorder
from repro.units import US, seconds_to_us
from repro.workloads import memcached_workload


def main() -> None:
    trace = TraceRecorder()
    node = ServerNode(
        workload=memcached_workload(),
        configuration=named_configuration("NT_Baseline"),
        qps=100_000,
        cores=10,
        horizon=0.1,
        seed=17,
        trace=trace,
    )
    result = node.run()
    print(f"Simulated {result.completed} requests; "
          f"trace holds {len(trace)} events\n")

    # 1. Governor decisions: which states were chosen how often?
    decisions = Counter(e.payload for e in trace.filter(kind="enter_idle"))
    print("Governor decisions (idle entries per state):")
    for state, count in decisions.most_common():
        print(f"  {state}: {count}")

    # 2. Idle-interval distribution per core (enter -> wake pairing).
    intervals = []
    entered = defaultdict(list)
    for event in trace:
        if event.kind == "enter_idle":
            entered[event.source].append(event.time)
        elif event.kind == "wake" and entered[event.source]:
            intervals.append(event.time - entered[event.source].pop(0))
    histogram = Histogram(0.0, 500 * US, bins=10)
    for interval in intervals:
        histogram.add(interval)
    print("\nIdle-interval histogram (0-500 us, 50 us bins):")
    for i, count in enumerate(histogram.counts):
        lo = i * 50
        bar = "#" * max(1, count // max(1, histogram.total // 200)) if count else ""
        print(f"  {lo:>3}-{lo + 50:<3} us: {count:>5} {bar}")
    print(f"  overflow (> 500 us): {histogram.overflow}")
    mean_interval = sum(intervals) / len(intervals)
    print(f"  mean idle interval: {seconds_to_us(mean_interval):.1f} us")


if __name__ == "__main__":
    main()
