"""Fig 9: the three vendor-tuned configurations on Memcached.

Sweeps NT_Baseline (Turbo off), NT_No_C6 (Turbo and C6 off) and
NT_No_C6_No_C1E (Turbo, C6 and C1E off) and reports (a) average latency,
(b) tail latency, (c) package power, (d) C-state residency.

Expected shape (Sec 7.2): NT_No_C6_No_C1E has the lowest latency but the
highest power across the sweep — disabling C1E removes its 10 us
transition penalty but parks idle cores in power-hungry C1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.api import (
    ExperimentResult,
    RateSweepExperiment,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import (
    Block,
    column,
    config_series,
    kqps_label,
    microseconds,
    number,
    rate_pivot,
    residency_table,
)

#: The three Sec 7.2 configurations, in the paper's order.
TUNED_CONFIGS = ["NT_Baseline", "NT_No_C6", "NT_No_C6_No_C1E"]


@dataclass(frozen=True)
class Fig9Params(SweepParams):
    """Fig 9 sweep knobs; ``None`` fields use the paper's defaults."""

    configs: Optional[Tuple[str, ...]] = None


@register_experiment
class Fig9Experiment(RateSweepExperiment):
    id = "fig9"
    title = "Fig 9: the three vendor-tuned configurations on Memcached."
    artifact = "Figure 9"
    Params = Fig9Params

    def configs(self) -> Tuple[str, ...]:
        configs = self.params.configs
        return tuple(TUNED_CONFIGS if configs is None else configs)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        series = config_series(result.records, self.configs())
        return [
            rate_pivot("Fig 9(a): average end-to-end latency (us)", series,
                       "avg_latency_e2e", microseconds),
            rate_pivot("Fig 9(b): tail (p99) end-to-end latency (us)", series,
                       "p99_latency_e2e", microseconds),
            rate_pivot("Fig 9(c): package power (W)", series,
                       "package_power", number(".1f")),
            residency_table(
                "Fig 9(d): C-state residency per configuration",
                [column("QPS", "qps", kqps_label), column("Config", "config")],
                [run for runs in zip(*series.values()) for run in runs],
                lambda record: record["residency"],
            ),
        ]
