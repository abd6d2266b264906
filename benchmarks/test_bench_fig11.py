"""Fig 11 (idle states x Turbo interaction) claim check.

Asserts the Sec 7.3 observations: C6A sustains Turbo grants longer than
the C1-parked configuration and achieves the best average latency at
high load.
"""

import figure_grids


def test_bench_fig11():
    sweep = figure_grids.fig11_sweep()
    high = len(figure_grids.FIG11_RATES) - 1
    # C6A sustains turbo grants at least as well everywhere, strictly
    # better at high load.
    c6a_grants = sweep.turbo_grant_rates("T_C6A_No_C6_No_C1E")
    c1_grants = sweep.turbo_grant_rates("T_No_C6_No_C1E")
    assert all(a >= b - 1e-9 for a, b in zip(c6a_grants, c1_grants))
    assert c6a_grants[high] > c1_grants[high]
    # And the best average latency of the Turbo configs at high load.
    c6a_lat = sweep.avg_latency_us("T_C6A_No_C6_No_C1E")[high]
    for other in ("T_No_C6", "T_No_C6_No_C1E"):
        assert c6a_lat <= sweep.avg_latency_us(other)[high] + 0.1
