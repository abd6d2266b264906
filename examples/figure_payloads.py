"""Figure data in code: the typed payloads behind Fig 11 and Fig 12.

Run with::

    python examples/figure_payloads.py

``repro run fig11`` prints tables; a notebook or a plotting script wants
the numbers instead. Every registered experiment returns a typed
``payload`` next to its flat records: Fig 11's is a rate sweep with one
series per configuration, Fig 12's one point per MySQL operating point.
This script reads both on a reduced grid (short horizons, two rates).
"""

from repro.experiments.fig11 import NO_TURBO_CONFIGS, TURBO_CONFIGS
from repro.experiments.fig11 import Fig11Experiment, Fig11Params
from repro.experiments.fig12 import Fig12Experiment, Fig12Params


def main() -> None:
    sweep = Fig11Experiment(
        Fig11Params(rates_kqps=(20.0, 300.0), horizon=0.05)
    ).execute().payload
    print(f"Fig 11 at {', '.join(f'{k:.0f}K' for k in sweep.rates_kqps)} QPS")
    for config in NO_TURBO_CONFIGS + TURBO_CONFIGS:
        avg = ", ".join(f"{us:.1f}" for us in sweep.avg_latency_us(config))
        tail = ", ".join(f"{us:.1f}" for us in sweep.tail_latency_us(config))
        line = f"  {config:<20} avg {avg} us, p99 {tail} us"
        if config in TURBO_CONFIGS:
            grants = ", ".join(f"{g:.0%}" for g in sweep.turbo_grant_rates(config))
            line += f", Turbo granted {grants}"
        print(line)

    points = Fig12Experiment(Fig12Params(horizon=0.5)).execute().payload
    print("\nFig 12: C6 residency, baseline -> C6 disabled (C1 takes it)")
    for point in points:
        before = point.baseline_residency.get("C6", 0.0)
        after = point.no_c6_residency.get("C1", 0.0)
        print(f"  {point.label:<5} C6 {before:.0%} -> C1 {after:.0%}")


if __name__ == "__main__":
    main()
