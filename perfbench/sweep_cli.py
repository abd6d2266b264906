"""``sweep_cli``: the CLI's commands, as a user runs them, in four timed phases.

Each point simulates very little (5 ms horizon), so executor dispatch,
pickling, the store's batched writes and reads, the codec, the lease
queue and experiment analyze/render dominate instead of the per-event
layers. The cold and warm phases use the store in two different ways
(writes, then reads), so a store change that helps one and costs the
other shows up.

Phases, each ``repro.cli.main(argv)`` over fresh directories:

1. ``cold``:  ``sweep --grid G --jobs 2`` into an empty store;
2. ``warm``:  the same command again, every point a store hit;
3. ``dist``:  ``sweep --grid G --distributed QDIR --jobs 2`` into another
   empty store (spawned workers);
4. ``quick``: ``run --all --quick`` into an empty store.

The commands run in the benchmark's process, with the process-wide memo
cleared before each, so that every phase is cold where it should be and
short enough to be timed many times per run. Interpreter start-up and
``import repro.cli`` are in ``setup_s`` (each set-up probe is a fresh
interpreter) and in the traced run's ``cli.*`` metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sqlite3
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
from checks import Checks, check_digest, check_record, digest
from common import JOBS, Pass, best_phases, child_env, median, read_jsonl, timed, timed_run

NAME = "sweep_cli"
#: Rates per workload, each below the workload's saturation point, so
#: completions follow Poisson arrivals.
RATES_KQPS = {
    "memcached": (10, 50, 100, 200, 400),
    "kafka": (5, 20, 50, 100, 150),
    "mysql": (2, 4, 8, 12),
}
CONFIGS = ("baseline", "NT_Baseline", "AW")
SEEDS_PER_POINT = 2
HORIZON_S = 0.005
#: Start-up probes per run for the ``cli.*`` metrics.
STARTUP_PROBES = 3

SWEEP_PHASES = ("cold", "warm", "dist")


def cli(args: List[str]) -> Tuple[int, float]:
    """``repro.cli.main(args)`` with a cold memo: ``(exit code, host s)``.

    Output is captured and shown only when the command fails.
    """
    import repro.cli
    from repro.sweep.runner import clear_shared_cache

    clear_shared_cache()
    sink = io.StringIO()

    def call() -> int:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return repro.cli.main(args)
            except SystemExit as exc:  # argparse usage errors
                return int(exc.code or 0)

    code, seconds = timed(call)
    if code != 0:
        print(f"perfbench: repro {' '.join(args[:2])} exited {code}: "
              f"{sink.getvalue()[-500:]}", file=sys.stderr)
    return code, seconds


def quick_digest(out_dir: Path) -> str:
    """Digest of every file a quick run wrote, in name order."""
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return digest({"file": p.name, "text": p.read_text(encoding="utf-8")} for p in files)


class SweepCli:
    def __init__(self, seed: int, scratch: Path) -> None:
        from repro.sweep.spec import ScenarioSpec

        self.seed = seed
        self.scratch = scratch
        self.grid_path = scratch / "grid.jsonl"
        specs = [
            ScenarioSpec(workload, config, kqps * 1e3, horizon=HORIZON_S,
                         seed=seed * 1000 + i)
            for workload, rates in RATES_KQPS.items()
            for config in CONFIGS
            for kqps in rates
            for i in range(SEEDS_PER_POINT)
        ]
        with open(self.grid_path, "w", encoding="utf-8") as handle:
            for spec in specs:
                handle.write(json.dumps(spec.to_dict()) + "\n")
        self.points = len(specs)
        self.passes = 0
        code, _ = cli(["list"])
        if code != 0:
            raise RuntimeError("repro list failed during set-up")

    def _sweep(self, cache: Path, out: Path) -> List[str]:
        return ["sweep", "--grid", str(self.grid_path), "--emit", "residency",
                "--cache-dir", str(cache), "-o", str(out)]

    def _quick(self, cache: Path, out: Path) -> List[str]:
        return ["run", "--all", "--quick", "--cache-dir", str(cache),
                "--format", "jsonl", "--out", str(out)]

    def _fresh_dir(self, kind: str) -> Path:
        self.passes += 1
        d = self.scratch / f"{kind}{self.passes}"
        d.mkdir()
        return d

    def run_pass(self, trace_root: Optional[Path] = None) -> Pass:
        """The four phases; with ``trace_root``, each under layer spans
        (written to ``trace_root/<phase>``) and with a run manifest."""
        d = self._fresh_dir("pass")
        commands = {
            "cold": self._sweep(d / "store1", d / "cold.jsonl") + ["--jobs", str(JOBS)],
            "warm": self._sweep(d / "store1", d / "warm.jsonl") + ["--jobs", str(JOBS)],
            "dist": self._sweep(d / "store2", d / "dist.jsonl")
            + ["--distributed", str(d / "queue"), "--jobs", str(JOBS)],
            "quick": self._quick(d / "store3", d / "quick"),
        }
        phases: Dict[str, float] = {}
        spans: Dict[str, Dict] = {}
        failed = 0
        for phase, args in commands.items():
            if trace_root is None:
                code, phases[phase] = cli(args)
            else:
                if phase in SWEEP_PHASES:
                    args = args + ["--manifest", str(d / f"{phase}.manifest.jsonl")]
                (trace_root / phase).mkdir(parents=True)
                (code, phases[phase]), spans[phase] = layers.traced_in_process(
                    lambda: cli(args), trace_root / phase
                )
            failed += code != 0
        # Outputs are kept as digests, so memory does not grow with the
        # number of passes.
        outputs = {"dir": d, "spans": spans}
        requests = {}
        for phase in SWEEP_PHASES:
            path = d / f"{phase}.jsonl"
            records = read_jsonl(path) if path.exists() else []
            outputs[phase] = digest(records)
            if phase in ("cold", "dist"):
                requests[phase] = sum(int(r.get("completed", 0)) for r in records)
        outputs["quick"] = quick_digest(d / "quick")
        return Pass(phases=phases, requests=requests, ops=len(commands),
                    failed_ops=failed, outputs=outputs)

    def verify(self, passes: List[Pass], checks: Checks) -> Dict[str, float]:
        d = self._fresh_dir("reference")
        code, _ = cli(self._sweep(d / "store", d / "serial.jsonl"))
        if not checks.check(code == 0, "sweep_cli: serial reference sweep failed"):
            return {}
        reference = read_jsonl(d / "serial.jsonl")
        checks.check(len(reference) == self.points, "sweep_cli: reference misses points")
        check_digest(checks, NAME, "records", self.seed, digest(reference))
        for record in reference:
            check_record(checks, f"{record['workload']}/{record['config']}@{record['qps']:.0f}"
                         f"/seed{record['seed']}", record)
        quick = passes[0].outputs["quick"]
        check_digest(checks, NAME, "quick", None, quick)
        for n, p in enumerate(passes):
            for phase in SWEEP_PHASES:
                checks.check(p.outputs[phase] == digest(reference),
                             f"sweep_cli: pass {n} {phase} records differ from cold serial")
            checks.check(p.outputs["quick"] == quick,
                         f"sweep_cli: pass {n} quick run output differs")
        return {}

    def profile(self) -> Dict[str, Dict[str, float]]:
        """A serial sweep of the grid plus the quick run."""
        d = self._fresh_dir("profile")
        return layers.profiled(lambda: [
            cli(self._sweep(d / "store1", d / "serial.jsonl")),
            cli(self._quick(d / "store2", d / "quick")),
        ])[1]

    def traced_pass(self, untraced: Pass, span_root: Path):
        traced = self.run_pass(trace_root=span_root)
        d = traced.outputs["dir"]
        spans = traced.outputs["spans"]
        manifests = {p: read_jsonl(d / f"{p}.manifest.jsonl") for p in SWEEP_PHASES}
        worker_rows = [read_jsonl(p) for p in sorted((d / "queue" / "manifests").glob("*.jsonl"))]
        out: Dict[str, float] = {}
        busy = spans["cold"].get("spec.execute", {"total_s": 0.0})["total_s"]
        out.update(_executor_metrics(manifests["cold"], busy, self.points))
        sweeps = [row for p in SWEEP_PHASES for row in manifests[p] if row["event"] == "sweep"]
        out["sweep.runner.memo_hits"] = sum(row["memo_hits"] for row in sweeps)
        out["sweep.runner.store_hits"] = sum(row["store_hits"] for row in sweeps)
        out["sweep.runner.retries"] = sum(
            row["event"] == "retry"
            for rows in list(manifests.values()) + worker_rows for row in rows
        )
        put = spans["cold"].get("store.put_many", {"total_s": 0.0, "items": 0})
        get = spans["warm"].get("store.get_many", {"total_s": 0.0, "items": 0})
        out["store.result_store.put_ms_per_point"] = put["total_s"] * 1e3 / max(put["items"], 1)
        out["store.result_store.get_ms_per_point"] = get["total_s"] * 1e3 / max(get["items"], 1)
        looked_up = sum(spans[p].get("store.get_many", {"items": 0})["items"] for p in ("cold", "warm"))
        hits = sum(row["store_hits"] for p in ("cold", "warm")
                   for row in manifests[p] if row["event"] == "sweep")
        out["store.result_store.hit_ratio"] = hits / max(looked_up, 1)
        out["store.serialize.encode_ms"] = layers.span_ms_per_call(spans["cold"], "store.serialize.encode")
        out["store.serialize.decode_ms"] = layers.span_ms_per_call(spans["warm"], "store.serialize.decode")
        out.update(_store_size(d / "store1"))
        out["distrib.queue.claim_ms"] = layers.span_ms_per_call(spans["dist"], "distrib.queue.claim")
        out["distrib.queue.complete_ms"] = layers.span_ms_per_call(spans["dist"], "distrib.queue.complete")
        out["distrib.queue.overhead_ms_per_point"] = _worker_overhead_ms(worker_rows, self.points)
        out["distrib.queue.recovered"] = sum(
            row.get("requeued", 0) for row in manifests["dist"] if row["event"] == "recovered"
        )
        out["experiments.analyze_ms"] = layers.span_total_ms(spans["quick"], "experiments.analyze")
        out["experiments.render_ms"] = layers.span_total_ms(spans["quick"], "experiments.render")
        out.update(_quick_grid_sizes())
        out.update(self._startup())
        return traced, out

    def phase_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        """Each phase on its own, fastest over passes."""
        best = best_phases(passes)
        return {
            "phase.sweep_points_per_s": self.points / best["cold"],
            "phase.warm_rerun_s": best["warm"],
            "phase.dist_points_per_s": self.points / best["dist"],
            "phase.quick_run_s": best["quick"],
        }

    def _startup(self) -> Dict[str, float]:
        """``python -m repro list`` wall time, and ``import repro.cli`` in a
        fresh interpreter."""
        env = child_env(self.scratch)
        lists = [timed_run([sys.executable, "-m", "repro", "list"], env)[1]
                 for _ in range(STARTUP_PROBES)]
        probe = ("import time; t = time.perf_counter(); import repro.cli; "
                 "print(time.perf_counter() - t)")
        imports = []
        for _ in range(STARTUP_PROBES):
            out = self.scratch / "import_probe.txt"
            timed_run([sys.executable, "-c", probe], env, stdout_path=out)
            imports.append(float(out.read_text().strip() or "nan"))
        return {"cli.startup_s": median(lists), "cli.import_s": median(imports)}


def _executor_metrics(rows: List[dict], busy_s: float, points: int) -> Dict[str, float]:
    """Per-point overhead and idle share of the ``--jobs`` pool.

    The window runs from the first ``claimed`` to the last ``finished``
    manifest event; busy time is the workers' ``spec.execute`` spans (the
    manifest's per-point ``wall_s`` also counts time queued for a worker).
    """
    claimed = [row["t"] for row in rows if row["event"] == "claimed"]
    finished = [row["t"] for row in rows if row["event"] == "finished"]
    if not claimed or not finished:
        return {"sweep.runner.point_overhead_ms": 0.0, "sweep.runner.worker_idle_frac": 0.0}
    capacity = (max(finished) - min(claimed)) * JOBS
    return {
        "sweep.runner.point_overhead_ms": (capacity - busy_s) / points * 1e3,
        "sweep.runner.worker_idle_frac": 1.0 - busy_s / capacity,
    }


def _worker_overhead_ms(workers: List[List[dict]], points: int) -> float:
    """Distributed worker time not spent simulating, per point: claim,
    parse, store write, commit, polling."""
    overhead = 0.0
    for rows in workers:
        if not rows:
            continue
        span = rows[-1]["wall"] - rows[0]["wall"]
        busy = sum(row["wall_s"] for row in rows if row["event"] == "finished")
        overhead += span - busy
    return overhead / points * 1e3


def _store_size(store_dir: Path) -> Dict[str, float]:
    from repro.store import ResultStore
    from repro.store.result_store import DB_FILENAME

    conn = sqlite3.connect(str(store_dir / DB_FILENAME))
    try:
        count, total = conn.execute(
            "SELECT COUNT(*), SUM(LENGTH(result)) FROM results"
        ).fetchone()
    finally:
        conn.close()
    return {
        "store.result_store.db_bytes": ResultStore(str(store_dir)).db_bytes(),
        "store.serialize.bytes_per_result": (total or 0) / max(count, 1),
    }


def _quick_grid_sizes() -> Dict[str, float]:
    """Points the quick experiments declare, and how many stay after the
    batched sweep deduplicates them."""
    from repro.experiments.api import all_experiments, collect_grid

    quick = [experiment.quick() for experiment in all_experiments()]
    return {
        "experiments.grid_points": sum(len(e.grid()) for e in quick),
        "experiments.unique_points": len(collect_grid(quick)),
    }
