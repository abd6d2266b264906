"""Fig 13: Apache Kafka evaluation at low/high rates.

Same panel structure as Fig 12 (Kafka at two operating points):

(a) baseline residency — >60% C6 at the low rate;
(b) residency with C6 disabled;
(c) tail/average latency reduction from disabling C6 (~4-5% at low rate,
    ~none at high rate where C6 was never entered);
(d) AW C6A average power reduction vs C6-disabled (>56% at both rates in
    the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import register_experiment
from repro.experiments.fig12 import Fig12Experiment, Fig12Params
from repro.workloads.kafka import KAFKA_RATES

#: Kafka batches are mid-weight; 1 s covers thousands of requests.
KAFKA_HORIZON = 1.0


@dataclass(frozen=True)
class Fig13Params(Fig12Params):
    """Fig 12's knobs with Kafka defaults."""

    horizon: float = KAFKA_HORIZON
    workload_name: str = "kafka"
    default_rates = KAFKA_RATES


@register_experiment
class Fig13Experiment(Fig12Experiment):
    id = "fig13"
    title = "Fig 13: Apache Kafka evaluation at low/high rates."
    artifact = "Figure 13"
    Params = Fig13Params
