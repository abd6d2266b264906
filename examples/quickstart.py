"""Quickstart: build the AgileWatts design, inspect it, simulate it.

Run with::

    python examples/quickstart.py

Walks through the three layers of the library:

1. the architecture model — derive the C6A/C6AE design point (Table 3);
2. the C-state catalog — what the OS-visible hierarchy looks like;
3. the server simulator — AW vs the Skylake baseline on Memcached.
"""

from repro import AgileWattsDesign, named_configuration, simulate
from repro.experiments.common import format_table
from repro.units import pretty_power, pretty_time
from repro.workloads import memcached_workload


def main() -> None:
    # 1. The architecture: subsystem models -> derived design point.
    design = AgileWattsDesign()
    print("\n".join(design.summary_lines()))
    print("\nPMA flow (Fig 6):")
    print(design.flow.describe())

    print("\nDesign verification:")
    for check, ok in design.verify().items():
        print(f"  {'PASS' if ok else 'FAIL'}  {check}")

    # 2. The C-state hierarchy AW exposes to the OS.
    print("\nAW C-state catalog:")
    print(
        format_table(
            ["State", "Transition", "Target residency", "Power"],
            design.catalog().table1_rows(),
        )
    )

    # 3. Simulate one Memcached operating point, baseline vs AW.
    workload = memcached_workload()
    qps = 100_000
    print(f"\nSimulating Memcached at {qps // 1000}K QPS (10 cores, 0.2 s)...")
    base = simulate(workload, named_configuration("baseline"), qps=qps, horizon=0.2)
    aw = simulate(workload, named_configuration("AW"), qps=qps, horizon=0.2)

    savings = (base.avg_core_power - aw.avg_core_power) / base.avg_core_power
    latency_delta = (aw.avg_latency_e2e - base.avg_latency_e2e) / base.avg_latency_e2e
    rows = [
        ["baseline", pretty_power(base.avg_core_power),
         pretty_time(base.avg_latency_e2e), pretty_time(base.tail_latency_e2e)],
        ["AW", pretty_power(aw.avg_core_power),
         pretty_time(aw.avg_latency_e2e), pretty_time(aw.tail_latency_e2e)],
    ]
    print(format_table(["Config", "Power/core", "Avg e2e", "p99 e2e"], rows))
    print(f"\nAW saves {savings * 100:.1f}% core power "
          f"at {latency_delta * 100:+.2f}% end-to-end latency.")


if __name__ == "__main__":
    main()
