"""Memcached load sweep: power/latency across request rates and configs.

Run with::

    python examples/memcached_sweep.py [--quick] [--jobs N]

Reproduces the core of the paper's evaluation story on one plot-ready
table: for each request rate, the baseline hierarchy, the vendor-tuned
C1-only configuration, and AW — showing that AW is the only point that
wins *both* axes (No_C1E-level latency at far lower power).

The sweep is declared as a :class:`repro.sweep.ScenarioGrid` and executed
through :class:`repro.sweep.SweepRunner`; pass ``--jobs 4`` to fan the
points out over worker processes (results are identical either way).
"""

import sys

from repro.experiments.common import format_table
from repro.sweep import ProcessExecutor, ScenarioGrid, SerialExecutor, SweepRunner
from repro.units import seconds_to_us

CONFIGS = ["NT_Baseline", "NT_No_C6_No_C1E", "NT_C6A_No_C6_No_C1E"]
LABELS = {"NT_Baseline": "baseline", "NT_No_C6_No_C1E": "C1-only",
          "NT_C6A_No_C6_No_C1E": "AW (C6A)"}


def _parse_jobs(argv) -> int:
    if "--jobs" not in argv:
        return 1
    try:
        return int(argv[argv.index("--jobs") + 1])
    except (IndexError, ValueError):
        raise SystemExit("usage: memcached_sweep.py [--quick] [--jobs N]")


def main() -> None:
    quick = "--quick" in sys.argv
    jobs = _parse_jobs(sys.argv)
    rates_kqps = [10, 100, 400] if quick else [10, 50, 100, 200, 300, 400, 500]
    horizon = 0.1 if quick else 0.3

    grid = ScenarioGrid.product(
        workload=["memcached"],
        config=CONFIGS,
        qps=[kqps * 1000 for kqps in rates_kqps],
        horizon=[horizon],
        seed=[42],
    )
    runner = SweepRunner(
        executor=ProcessExecutor(jobs) if jobs > 1 else SerialExecutor()
    )
    by_key = {
        (spec.config, spec.qps): result
        for spec, result in zip(grid, runner.run_many(grid))
    }

    rows = []
    for kqps in rates_kqps:
        results = {name: by_key[(name, kqps * 1000.0)] for name in CONFIGS}
        base = results["NT_Baseline"]
        aw = results["NT_C6A_No_C6_No_C1E"]
        savings = (base.avg_core_power - aw.avg_core_power) / base.avg_core_power
        row = [f"{kqps}K"]
        for name in CONFIGS:
            r = results[name]
            row.append(f"{r.avg_core_power:.2f}W")
            row.append(f"{seconds_to_us(r.avg_latency_e2e):.0f}us")
        row.append(f"{savings * 100:.0f}%")
        rows.append(row)

    headers = ["QPS"]
    for name in CONFIGS:
        headers += [f"{LABELS[name]} P", f"{LABELS[name]} lat"]
    headers.append("AW saves")
    print("Memcached sweep: per-core power and avg end-to-end latency")
    print(format_table(headers, rows))
    print("\nReading guide: 'C1-only' beats 'baseline' on latency but burns more")
    print("power; 'AW (C6A)' matches its latency at a fraction of the power.")


if __name__ == "__main__":
    main()
