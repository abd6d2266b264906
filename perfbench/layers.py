"""Layer attribution for the traced run.

Two instruments, both installed from the benchmark's own files so that
nothing under ``src/`` changes:

* :class:`SpanRecorder` wraps the public entry points of the coarse
  layers (spec execution, node build/collect, percentiles, sharding,
  sweep runner, store, codec, job queue, experiments) and records one
  span per call: name, start, end and the enclosing span. Spans stay in
  memory and are written out once, when the process ends. Worker
  processes (fork or spawn) re-arm the recorder after they start and
  write their own file on exit.
* :func:`profile_modules` folds a :mod:`cProfile` run into per-module
  call counts and self time. A wrapper per event would distort the
  per-event layers (engine, node, core/package/turbo, governor,
  workloads), so those are attributed by the deterministic profiler.
  For a fixed seed the call counts are machine-independent: they form
  the noise-free ledger two traced runs must reproduce exactly.
"""

from __future__ import annotations

import cProfile
import functools
import json
import multiprocessing.util
import os
import pstats
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Per-module buckets of the per-event layers, by dotted-name prefix.
PROFILE_LAYERS: Dict[str, Tuple[str, ...]] = {
    "simkit.engine": ("repro.simkit.engine",),
    "server.node": ("repro.server.node",),
    "uarch.core": ("repro.uarch.core",),
    "uarch.package": ("repro.uarch.package",),
    "uarch.turbo": ("repro.uarch.turbo",),
    "governor": ("repro.governor",),
    # Arrival and service-time draws: the workload models plus the
    # distributions they sample from.
    "workloads": ("repro.workloads", "repro.simkit.distributions"),
    "simkit.stats": ("repro.simkit.stats",),
    "simkit.sketch": ("repro.simkit.sketch",),
    "cluster.balancer": ("repro.cluster.balancer",),
    "cluster.fanout": ("repro.cluster.fanout",),
}

#: Module key for the stdlib generator (``random.py`` plus the C methods
#: of ``_random.Random``).
RNG_MODULE = "random"

Span = List[Any]  # [name, start, end, parent index, items]

#: Tells a spawned worker where to write its spans.
SPANS_ENV = "PERFBENCH_SPANS"


class SpanRecorder:
    """In-memory spans around calls into layer entry points.

    Args:
        out_dir: where :meth:`dump` writes ``spans-<pid>.jsonl``; worker
            processes write there on exit.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with an empty buffer, not the parent's.
        self.spans = []
        self._local = threading.local()
        self.dump_at_worker_exit()

    def dump_at_worker_exit(self) -> None:
        """Write the spans when this worker process ends: multiprocessing
        runs finalizers with an exit priority before a worker exits.
        Forked workers arm this themselves; spawned ones through
        :func:`arm_spawned_worker`."""
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        items: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        A module-level function is also replaced wherever another loaded
        module imported it by name. ``items(args, result)`` optionally
        counts the units of work a call handled (keys looked up, hits).
        A call nested in a span of the same name is not recorded again.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack and recorder.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            index = len(recorder.spans)
            span: Span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            recorder.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if items is not None:
                span[4] = items(args, result)
            return result

        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                module for module in list(sys.modules.values())
                if module is not owner and vars(module).get(attr) is original
            ]
        for target in owners:
            setattr(target, attr, traced)
            self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def dump(self) -> None:
        """Write this process's spans to ``out_dir`` and clear the buffer."""
        path = Path(self.out_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                if span[2] is not None:
                    handle.write(json.dumps(span) + "\n")
        self.spans = []


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every coarse layer.

    Import ``repro.cli`` first when it will run: functions it imported
    by name are only rebound if it is already loaded.
    """
    from repro.cluster import sharding
    from repro.distrib.queue import JobQueue
    from repro.experiments import api
    from repro.server.node import ServerNode
    from repro.simkit.stats import PercentileTracker
    from repro.store import result_store, serialize
    from repro.sweep.runner import SweepRunner
    from repro.sweep.spec import ScenarioSpec

    recorder.wrap(ScenarioSpec, "execute", "spec.execute")
    recorder.wrap(ServerNode, "__init__", "server.node.build")
    recorder.wrap(ServerNode, "run", "server.node.run")
    recorder.wrap(ServerNode, "collect", "server.node.collect")
    recorder.wrap(PercentileTracker, "percentiles", "simkit.stats.percentiles")
    recorder.wrap(PercentileTracker, "percentile", "simkit.stats.percentiles")
    recorder.wrap(sharding, "run_shard", "cluster.sharding.run_shard")
    recorder.wrap(sharding, "merge_node_results", "cluster.sharding.merge")
    recorder.wrap(SweepRunner, "run_many", "sweep.runner.run_many",
                  items=lambda args, result: len(args[1]))
    recorder.wrap(result_store.ResultStore, "put_many", "store.put_many",
                  items=lambda args, result: len(args[1]))
    recorder.wrap(result_store.ResultStore, "get_many", "store.get_many",
                  items=lambda args, result: len(args[1]))
    recorder.wrap(serialize, "result_to_dict", "store.serialize.encode")
    recorder.wrap(serialize, "result_from_dict", "store.serialize.decode")
    recorder.wrap(JobQueue, "claim", "distrib.queue.claim")
    recorder.wrap(JobQueue, "complete", "distrib.queue.complete")
    owners = {
        next(c for c in api.get_experiment_class(i).__mro__ if "analyze" in vars(c))
        for i in api.experiment_ids()
    }
    for owner in sorted(owners, key=lambda c: c.__qualname__):
        recorder.wrap(owner, "analyze", "experiments.analyze")
    recorder.wrap(api, "render", "experiments.render")


def traced_in_process(run: Callable[[], Any], out_dir: Path) -> Tuple[Any, Dict[str, Dict[str, float]]]:
    """Run ``run()`` with layer spans installed in this process and in
    every worker it starts: ``(result, span summary)``.

    Forked workers inherit the spans; spawned workers re-import the main
    script, which calls :func:`arm_spawned_worker`.
    """
    recorder = SpanRecorder(str(out_dir))
    install_layer_spans(recorder)
    previous = os.environ.get(SPANS_ENV)
    os.environ[SPANS_ENV] = str(out_dir)
    try:
        result = run()
    finally:
        recorder.uninstall()
        if previous is None:
            del os.environ[SPANS_ENV]
        else:
            os.environ[SPANS_ENV] = previous
    return result, summarize_spans([recorder.spans] + read_spans(str(out_dir)))


def arm_spawned_worker() -> None:
    """Record spans in this spawned worker when a traced run started it."""
    out_dir = os.environ.get(SPANS_ENV)
    if out_dir:
        recorder = SpanRecorder(out_dir)
        install_layer_spans(recorder)
        recorder.dump_at_worker_exit()


def read_spans(out_dir: str) -> List[List[Span]]:
    """Every span file under ``out_dir``, one list per writing process."""
    files = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            files.append([json.loads(line) for line in handle if line.strip()])
    return files


def summarize_spans(files: Iterable[List[Span]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds, items handled.

    Self time is a span's duration minus the part its child spans cover.
    Parent indices are per file, since each file is one process.
    """
    out: Dict[str, Dict[str, float]] = {}
    for spans in files:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if 0 <= parent < len(spans):
                child_s[parent] += end - start
        for index, (name, start, end, _, items) in enumerate(spans):
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
            )
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
            entry["items"] += items or 0
    return out


def span_ms_per_call(summary: Dict[str, Dict[str, float]], name: str) -> float:
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry["total_s"] / entry["count"] * 1e3


def span_total_ms(summary: Dict[str, Dict[str, float]], name: str) -> float:
    entry = summary.get(name)
    return entry["total_s"] * 1e3 if entry else 0.0


def _module_of(filename: str, funcname: str, package_root: str) -> str:
    if filename == "~":
        return RNG_MODULE if "_random.Random" in funcname else "builtins"
    if filename.startswith(package_root):
        rel = filename[len(package_root):].lstrip(os.sep)
        return "repro." + rel[:-3].replace(os.sep, ".") if rel.endswith(".py") else "repro"
    if os.path.basename(filename) == "random.py":
        return RNG_MODULE
    return "other"


def profile_modules(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Fold a profile into ``{module: {"calls", "self_s"}}``."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parent)
    modules: Dict[str, Dict[str, float]] = {}
    for (filename, _, funcname), row in pstats.Stats(profile).stats.items():
        _, calls, self_s, *_ = row
        module = _module_of(filename, funcname, package_root)
        entry = modules.setdefault(module, {"calls": 0, "self_s": 0.0})
        entry["calls"] += calls
        entry["self_s"] += self_s
    return modules


def merge_modules(parts: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for module, entry in part.items():
            into = merged.setdefault(module, {"calls": 0, "self_s": 0.0})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
    return merged


def ledger(modules: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """The deterministic part of a profile: call counts of the simulator's
    own modules and of the stdlib generator."""
    return {
        module: int(entry["calls"])
        for module, entry in sorted(modules.items())
        if module.startswith("repro") or module == RNG_MODULE
    }


def layer_metrics(modules: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_pct`` for every profiled layer,
    plus ``workloads.rng_self_pct``."""
    total = sum(entry["self_s"] for entry in modules.values()) or 1.0
    out: Dict[str, float] = {}
    for layer, prefixes in PROFILE_LAYERS.items():
        calls = 0
        self_s = 0.0
        for module, entry in modules.items():
            if any(module == p or module.startswith(p + ".") for p in prefixes):
                calls += entry["calls"]
                self_s += entry["self_s"]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_pct"] = 100.0 * self_s / total
    rng = modules.get(RNG_MODULE, {"self_s": 0.0})["self_s"]
    out["workloads.rng_self_pct"] = 100.0 * rng / total
    return out


def profiled(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, Dict[str, float]]]:
    """Run ``fn`` under cProfile: ``(result, per-module stats)``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, profile_modules(profile)
