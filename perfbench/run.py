"""The repo benchmark: host time of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload node_hot --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``METRICS.md``):

* ``node_hot``  single-node ``ScenarioSpec.execute()`` calls, in-process;
* ``sweep_cli`` the ``repro`` CLI: cold, warm and distributed sweeps and a
  quick run of every experiment;
* ``fleet``     shared-simulator cluster points and a sharded 100-node
  point.

Each is a closed loop with one client: the next call or command is
issued only after the previous one returns, and at most two worker
processes run. A run sets up, repeats whole passes over the workload for
``--seconds``, checks the simulated outputs and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics (each
operation at its fastest over the passes); ``--trace 1`` runs one untraced pass, one pass with layer spans
and two profiled passes, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402
import layers  # noqa: E402
from checks import DEFAULT_SEED, HELD_OUT_SEED, PAPER_PEAK_SAVING_PCT, Checks  # noqa: E402

if __name__ == "__mp_main__":  # a spawned worker re-importing this script
    common.require_source()
    layers.arm_spawned_worker()

WORKLOADS = {"node_hot": "NodeHot", "sweep_cli": "SweepCli", "fleet": "Fleet"}
#: Set-ups timed per run; ``setup_s`` is the fastest.
SETUP_PROBES = 3


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Units of every metric ``BENCHMARK.json`` declares, by report mode."""
    manifest = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "0": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }


def make_workload(name: str, seed: int, scratch: Path):
    return getattr(importlib.import_module(name), WORKLOADS[name])(seed, scratch)


def setup_probe(name: str, seed: int, scratch: Path) -> float:
    """Host time of one fresh set-up in its own interpreter: imports,
    input generation, warm-up and fresh directories."""
    code, seconds = common.timed_run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        env=common.child_env(scratch),
    )
    if code != 0:
        raise RuntimeError(f"{name}: set-up probe exited {code}")
    return seconds


def measure(workload, seconds: float, probe) -> Tuple[List[common.Pass], List[float]]:
    """Whole passes until the next one would overrun ``seconds``, with a
    set-up probe before each of the first passes, so the probes spread
    over the run like the passes do."""
    passes: List[common.Pass] = []
    setups: List[float] = []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        passes.append(workload.run_pass())
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return passes, setups


def end_to_end(passes: List[common.Pass], setups: List[float]) -> Dict[str, float]:
    """Each operation at its fastest over the passes (see ``best_phases``);
    set-up likewise at its fastest probe."""
    best = common.best_phases(passes)
    requests = passes[0].requests
    return {
        "setup_s": min(setups),
        "wall_s": sum(best.values()),
        "sim_req_per_s": sum(requests.values()) / sum(best[op] for op in requests),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def per_layer(workload, checks: Checks, span_root: Path) -> Tuple[Dict[str, float], List[common.Pass]]:
    untraced = workload.run_pass()
    traced, metrics = workload.traced_pass(untraced, span_root)
    metrics["trace.span_overhead"] = traced.wall_s / untraced.wall_s
    metrics.update(workload.phase_metrics([untraced]))
    first = workload.profile()
    counts = layers.ledger(first)
    checks.check(counts == layers.ledger(workload.profile()),
                 "ledger: two profiled passes gave different call counts")
    metrics["ledger.calls"] = sum(counts.values())
    metrics.update(layers.layer_metrics(first))
    return metrics, [untraced, traced]


def report(name: str, declared: Dict[str, str], values: Dict[str, float]) -> Dict[str, dict]:
    unknown = set(values) - set(declared)
    if unknown:
        raise RuntimeError(f"{name}: metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for metric, unit in declared.items():
        # Layers a workload does not exercise read 0 by construction.
        value = float(values.get(metric, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"{name}: metric {metric} is {value}")
        out[metric] = {"value": value, "unit": unit}
    return out


def run(args) -> int:
    common.require_source()
    declared = declared_metrics()[str(args.trace)]
    scratch = common.make_scratch(f"{args.workload}-")
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, scratch)
            return 0
        workload = make_workload(args.workload, args.seed, scratch)
        checks = Checks()
        if args.trace:
            span_root = scratch / "spans"
            span_root.mkdir()
            values, passes = per_layer(workload, checks, span_root)
        else:
            passes, setups = measure(
                workload, args.seconds,
                lambda: setup_probe(args.workload, args.seed, scratch),
            )
            values = end_to_end(passes, setups)
        info = workload.verify(passes, checks)
        # Traced runs report the phases among their metrics.
        phases = {} if args.trace else workload.phase_metrics(passes)
    finally:
        common.remove_scratch(scratch)
        common.stop_resource_tracker()

    attempted = sum(p.ops for p in passes) + checks.attempted
    failed = sum(p.failed_ops for p in passes) + checks.failed
    metrics = report(args.workload, declared, values)
    host = common.host_facts()
    print(f"host: nproc={host['nproc']} python={host['python']} loadavg={host['loadavg']}")
    seed_role = {DEFAULT_SEED: "digests pinned", HELD_OUT_SEED: "held out, no digests"}
    print(f"workload: {args.workload} seed={args.seed} ({seed_role.get(args.seed, 'no digests')})"
          f" passes={len(passes)}")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for metric, value in phases.items():
        print(f"  {metric} = {value:.6g}")
    if not args.trace:
        for op, seconds in common.best_phases(passes).items():
            print(f"  op {op}: fastest {seconds:.4f} s of {len(passes)}")
    print(f"  failed_frac = {failed / attempted:.6g} failed ops / attempted ({failed}/{attempted})")
    if "aw_peak_saving_pct" in info:
        print(f"  AW peak core-power saving {info['aw_peak_saving_pct']:.1f}% "
              f"(paper: up to ~{PAPER_PEAK_SAVING_PCT:.0f}%)")
    for label, value in checks.digests:
        print(f"  digest {label} = {value}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
