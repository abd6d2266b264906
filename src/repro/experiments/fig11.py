"""Fig 11: the effect of idle states on Turbo performance.

Six configurations over the Memcached sweep — with and without Turbo, for
C6-disabled, C6+C1E-disabled, and AW's C6A-only hierarchy:

    NT_No_C6,           NT_No_C6_No_C1E,     NT_C6A_No_C6_No_C1E
    T_No_C6,            T_No_C6_No_C1E,      T_C6A_No_C6_No_C1E

Expected observations (Sec 7.3):

1. with Turbo off, disabling C1E helps latency (no 10 us transitions);
2. enabling Turbo while C1E is disabled does NOT improve performance —
   idle cores burn C1 power, so no thermal headroom accumulates;
3. with Turbo on, T_No_C6 ~= T_No_C6_No_C1E — C1E's transition overhead
   offsets its thermal-capacitance gains;
4. C6A + Turbo (the dashed green line) gets both: C1E-free latency *and*
   headroom, the best average/tail latency of the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.api import (
    ExperimentResult,
    RateSweepExperiment,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import (
    Block,
    config_series,
    microseconds,
    percent,
    rate_pivot,
)

NO_TURBO_CONFIGS = ["NT_No_C6", "NT_No_C6_No_C1E", "NT_C6A_No_C6_No_C1E"]
TURBO_CONFIGS = ["T_No_C6", "T_No_C6_No_C1E", "T_C6A_No_C6_No_C1E"]


@dataclass(frozen=True)
class Fig11Params(SweepParams):
    """Fig 11 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""


@register_experiment
class Fig11Experiment(RateSweepExperiment):
    id = "fig11"
    title = "Fig 11: the effect of idle states on Turbo performance."
    artifact = "Figure 11"
    Params = Fig11Params
    CONFIGS = tuple(NO_TURBO_CONFIGS + TURBO_CONFIGS)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        series = config_series(result.records, self.configs())
        no_turbo = {c: series[c] for c in NO_TURBO_CONFIGS}
        turbo = {c: series[c] for c in TURBO_CONFIGS}
        return [
            rate_pivot("Fig 11(a): No Turbo - avg latency (us)", no_turbo,
                       "avg_latency_e2e", microseconds),
            rate_pivot("Fig 11(b): Turbo - avg latency (us)", turbo,
                       "avg_latency_e2e", microseconds),
            rate_pivot("Fig 11(c): No Turbo - tail latency (us)", no_turbo,
                       "p99_latency_e2e", microseconds),
            rate_pivot("Fig 11(d): Turbo - tail latency (us)", turbo,
                       "p99_latency_e2e", microseconds),
            rate_pivot(
                "Turbo grant rates (fraction of busy-period starts boosted)",
                turbo, "turbo_grant_rate", percent(0),
            ),
        ]
