"""Fig 9 (tuned configs) and Fig 10 (AW vs tuned) claim checks.

Asserts the Sec 7.2 claims: No_C1E trades power for latency; AW wins
power against all three tuned configs (peak ~70%) at comparable-or-better
latency.
"""

import figure_grids

from repro.experiments import fig9, fig10


def test_bench_fig9():
    sweep = figure_grids.fig9_sweep()
    low = 0
    # NT_No_C6_No_C1E: lowest latency, highest power at low load.
    latencies = {c: sweep.results[c][low].avg_latency for c in fig9.TUNED_CONFIGS}
    powers = {c: sweep.results[c][low].avg_core_power for c in fig9.TUNED_CONFIGS}
    assert latencies["NT_No_C6_No_C1E"] == min(latencies.values())
    assert powers["NT_No_C6_No_C1E"] == max(powers.values())
    # Disabling C6 cuts the low-load tail.
    assert (
        sweep.results["NT_No_C6"][low].tail_latency
        < sweep.results["NT_Baseline"][low].tail_latency
    )


def test_bench_fig10():
    points = figure_grids.fig10_points()
    # AW saves power against every tuned config at every rate.
    for p in points:
        for config in fig9.TUNED_CONFIGS:
            assert p.power_reduction[config] > 0.0
    # Peak in the paper's "up to ~71%" band.
    assert 0.55 <= fig10.peak_power_reduction(points) <= 0.85
    # Latency within 1% of the latency-optimal tuned config.
    for p in points:
        assert p.avg_latency_reduction["NT_No_C6_No_C1E"] > -0.01
