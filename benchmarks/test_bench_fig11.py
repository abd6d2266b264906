"""Benchmark regenerating Fig 11 (idle states x Turbo interaction).

Asserts the Sec 7.3 observations: C6A sustains Turbo grants longer than
the C1-parked configuration and achieves the best average latency at
high load.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, run_once
from repro.experiments.fig11 import Fig11Experiment, Fig11Params
from repro.sweep.runner import clear_shared_cache

#: Fig 11 needs high load and enough time for the turbo tank to deplete.
RATES = (10, 300, 500)
HORIZON = 0.4


def test_bench_fig11(benchmark):
    clear_shared_cache()
    experiment = Fig11Experiment(
        Fig11Params(rates_kqps=RATES, horizon=HORIZON, seed=BENCH_SEED)
    )
    sweep = run_once(benchmark, experiment.execute).payload
    high = len(RATES) - 1
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
