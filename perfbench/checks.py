"""Output-correctness checks shared by the workloads.

Every check is one attempted operation; a failing check is one failed
operation and makes the run incorrect. Simulated outputs are a pure
function of the spec, so a change that only makes the simulator faster
must leave every digest and invariant below untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Held out while the digests and invariants were written: runs the
#: invariant and cross-path checks only, so a later claim can be confirmed
#: on a seed nobody tuned against.
HELD_OUT_SEED = 2

#: Paper's headline: AW cuts core power by up to ~71% (Sec 7.2).
PAPER_PEAK_SAVING_PCT = 71.0


class Checks:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        #: ``(label, digest)`` of every output digest computed.
        self.digests: List[Tuple[str, str]] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest(records: Iterable[Mapping[str, object]]) -> str:
    """SHA-256 of canonical JSON records (key-sorted, full float repr)."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def pinned_digest(workload: str, part: str, seed: Optional[int]) -> Optional[str]:
    """The pinned digest of ``part`` for ``seed`` (``None`` = seed-free)."""
    table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    key = "any" if seed is None else str(seed)
    return table.get(workload, {}).get(part, {}).get(key)


def check_digest(
    checks: Checks, workload: str, part: str, seed: Optional[int], value: str
) -> None:
    """Compare against the pinned digest, when one is pinned for ``seed``."""
    checks.digests.append((f"{workload}/{part}", value))
    expected = pinned_digest(workload, part, seed)
    if expected is not None:
        checks.check(
            value == expected,
            f"{workload}/{part}: digest {value[:16]} != pinned {expected[:16]}",
        )


def check_record(checks: Checks, label: str, record: Mapping[str, object]) -> None:
    """Residency sums to 1, and completions match Poisson arrivals.

    Completions may fall short of arrivals by the requests still in
    flight at the horizon, about ``qps * p99 latency``.
    """
    total = sum(dict(record["residency"]).values())
    checks.check(abs(total - 1.0) < 1e-9, f"{label}: residency sums to {total!r}")
    expected = float(record["qps"]) * float(record["horizon"])
    completed = int(record["completed"])
    slack = 5.0 * math.sqrt(expected) + 1.0
    in_flight = float(record["qps"]) * float(record["p99_latency"]) + 1.0
    checks.check(
        expected - slack - in_flight <= completed <= expected + slack,
        f"{label}: completed {completed} outside Poisson bounds of {expected:.0f}",
    )


def power_and_latency_claims(
    checks: Checks, pairs: Dict[float, Dict[str, Mapping[str, object]]]
) -> float:
    """AW below baseline core power at every rate, and AW average
    end-to-end latency within 1% of baseline at 100 KQPS.

    ``pairs`` maps rate to ``{"baseline": record, "AW": record}``.
    Returns AW's peak core-power saving in percent.
    """
    peak = 0.0
    for qps, pair in sorted(pairs.items()):
        base = float(pair["baseline"]["avg_core_power"])
        aw = float(pair["AW"]["avg_core_power"])
        checks.check(aw < base, f"AW core power {aw} not below baseline {base} at {qps:.0f} QPS")
        peak = max(peak, 100.0 * (base - aw) / base)
        if qps == 100e3:
            base_lat = float(pair["baseline"]["avg_latency_e2e"])
            aw_lat = float(pair["AW"]["avg_latency_e2e"])
            checks.check(
                aw_lat <= 1.01 * base_lat,
                f"AW avg e2e latency {aw_lat} more than 1% above baseline {base_lat}",
            )
    return peak
