"""Shared definition of the golden bit-identity grid and digest.

The golden-digest tests (:mod:`tests.test_golden_digest`) pin the exact
``RunResult`` of a grid of scenarios across governors, rates, configs and
cluster axes. The digest string is built from ``float.hex()`` renderings,
so two results collide only if every observable is bit-identical.

Regenerate the pinned digests (only when an *intentional* behaviour
change lands) with::

    PYTHONPATH=src:tests python -m golden_specs > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json

from repro.server.metrics import RunResult
from repro.sweep.spec import ScenarioSpec

#: The pinned grid: governors x rates x configs x cluster axes, all at
#: short horizons so the whole grid replays in a few seconds.
GOLDEN_SPECS = [
    ScenarioSpec("memcached", "baseline", qps=20_000, horizon=0.05, seed=42),
    ScenarioSpec("memcached", "baseline", qps=150_000, horizon=0.04, seed=42),
    ScenarioSpec("memcached", "AW", qps=100_000, horizon=0.05, seed=7),
    ScenarioSpec("memcached", "baseline", qps=100_000, horizon=0.04, seed=42,
                 governor="c1_only"),
    ScenarioSpec("memcached", "baseline", qps=100_000, horizon=0.04, seed=42,
                 governor="oracle"),
    ScenarioSpec("memcached", "T_No_C6", qps=80_000, horizon=0.04, seed=42,
                 turbo=True),
    ScenarioSpec("mysql", "baseline", qps=30_000, horizon=0.05, seed=42),
    ScenarioSpec("kafka", "AW_No_C6", qps=50_000, horizon=0.05, seed=3,
                 snoops=False),
    ScenarioSpec("memcached", "baseline", qps=60_000, horizon=0.04, seed=42,
                 nodes=3, fanout=2, balancer="jsq"),
    ScenarioSpec("memcached", "AW", qps=40_000, horizon=0.04, seed=42,
                 nodes=2, balancer="round_robin", hedge_ms=1.0),
    ScenarioSpec("memcached", "baseline", qps=50_000, horizon=0.04, seed=11,
                 nodes=4, fanout=4, balancer="power_of_two"),
    # 24 nodes: power-of-two sampling past Random.sample's pool branch
    # (n > 21 for d = 2), plus hedging; and random picks at fan-out 3.
    ScenarioSpec("memcached", "AW", qps=300_000, horizon=0.005, seed=7,
                 nodes=24, fanout=2, balancer="power_of_two", hedge_ms=0.02),
    ScenarioSpec("memcached", "baseline", qps=200_000, horizon=0.005, seed=7,
                 nodes=24, fanout=3, balancer="random"),
]


def digest_result(result: RunResult) -> str:
    """Canonical sha256 digest of every observable of a ``RunResult``.

    Floats are rendered with ``float.hex()`` (exact), so the digest
    changes iff any bit of any observable changes.
    """
    parts = [
        f"completed={result.completed}",
        f"samples={result.server_latency.count}",
    ]
    if result.server_latency.count:
        for p in (50, 95, 99, 99.9):
            parts.append(f"p{p}={result.server_latency.percentile(p).hex()}")
    parts.append(f"avg_core_power={result.avg_core_power.hex()}")
    parts.append(f"package_power={result.package_power.hex()}")
    for name, value in sorted(result.residency.items()):
        parts.append(f"residency:{name}={float(value).hex()}")
    for name, value in sorted(result.transitions_per_second.items()):
        parts.append(f"transitions:{name}={float(value).hex()}")
    parts.append(f"turbo_grant_rate={float(result.turbo_grant_rate).hex()}")
    parts.append(f"snoops_served={result.snoops_served}")
    parts.append(f"hedges_issued={result.hedges_issued}")
    # node_detail floats round-trip via repr (shortest-repr is injective
    # over doubles), so JSON is digest-safe here.
    parts.append(json.dumps(result.node_detail, sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()


def spec_label(spec: ScenarioSpec) -> str:
    """Stable human-readable key for one golden spec."""
    return "|".join(str(field) for field in spec.cache_key)


def compute_digests() -> dict:
    return {spec_label(spec): digest_result(spec.execute()) for spec in GOLDEN_SPECS}


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=2, sort_keys=True))
