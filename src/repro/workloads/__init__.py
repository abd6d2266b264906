"""Workload substrate: latency-critical services and load generation.

- :mod:`~repro.workloads.base` — service-time models that split work into
  frequency-scalable and fixed components.
- :mod:`~repro.workloads.loadgen` — open-loop Poisson load generator
  (Mutilate-style).
- :mod:`~repro.workloads.memcached` / :mod:`~repro.workloads.kafka` /
  :mod:`~repro.workloads.mysql` — the paper's three evaluated services.
- :mod:`~repro.workloads.profiles` — measured-residency profiles of the
  four validation workloads (Sec 6.3) and the Sec 2 motivation profiles.
"""

from repro.workloads.base import ServiceTimeModel, Workload
from repro.workloads.loadgen import LoadGenerator, OpenLoopPoisson, RoundRobinThinned
from repro.workloads.memcached import memcached_workload, MEMCACHED_RATES_KQPS
from repro.workloads.kafka import kafka_workload, KAFKA_RATES
from repro.workloads.mysql import mysql_workload, MYSQL_RATES
from repro.workloads.profiles import (
    ResidencyProfile,
    motivation_profiles,
    validation_profiles,
)

__all__ = [
    "ServiceTimeModel",
    "Workload",
    "LoadGenerator",
    "OpenLoopPoisson",
    "RoundRobinThinned",
    "memcached_workload",
    "MEMCACHED_RATES_KQPS",
    "kafka_workload",
    "KAFKA_RATES",
    "mysql_workload",
    "MYSQL_RATES",
    "ResidencyProfile",
    "motivation_profiles",
    "validation_profiles",
]
