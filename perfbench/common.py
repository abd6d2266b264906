"""Paths, scratch directories, subprocess timing and small statistics."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Every scratch file lives under the checkout, never in ``~/.cache``.
SCRATCH_ROOT = ROOT / ".perfbench_tmp"

#: Worker processes any operation may use: a sandbox-sized load.
JOBS = 2

#: Upper bound for one CLI phase; a hung phase fails instead of hanging
#: the benchmark.
PHASE_TIMEOUT_S = 120.0


@dataclass
class Pass:
    """One pass over a workload's operations, each timed on its own.

    ``phases`` maps each operation to its host seconds; ``requests`` maps
    the operations that simulate from scratch (and so count towards
    ``sim_req_per_s``) to the requests they completed. ``ops`` and
    ``failed_ops`` count the calls or commands issued; ``outputs`` is
    what the correctness checks read.
    """

    phases: Dict[str, float]
    requests: Dict[str, int]
    ops: int
    failed_ops: int = 0
    outputs: Any = None

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())


def best_phases(passes: Sequence[Pass]) -> Dict[str, float]:
    """Each operation's fastest time over the passes.

    Noise on a shared host only ever adds time, in bursts that last
    seconds, so the fastest of many repeats is the steady estimate of an
    operation's cost; a median drifts with the share of the run that
    fell in a burst.
    """
    return {op: min(p.phases[op] for p in passes) for op in passes[0].phases}


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``(fn(), host seconds)``, starting from a collected heap.

    Without the collection the cyclic collector's schedule inside an
    operation depends on what earlier operations left alive, which moved
    a cluster point's fastest time by 10% between seeds doing the same
    work.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def require_source() -> None:
    """Make ``import repro`` resolve to the checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_scratch(prefix: str) -> Path:
    SCRATCH_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()
    except OSError:  # another run still holds a directory there
        pass


def child_env(scratch: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for CLI subprocesses: the checkout's sources, a
    default store inside the scratch directory (every phase also passes
    ``--cache-dir``), and a fixed hash seed so call counts repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(scratch / "default-store")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_SANITIZE", None)
    if extra:
        env.update(extra)
    return env


def timed_run(
    args: Sequence[str], env: Dict[str, str], stdout_path: Optional[Path] = None
) -> Tuple[int, float]:
    """Run a child to completion: ``(exit code, host seconds)``.

    Stdout goes to ``stdout_path`` (or is discarded); stderr is kept only
    when the child fails, so a failing phase explains itself.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    start = time.perf_counter()
    # Own session, so a timed-out phase is killed with every worker it
    # started.
    proc = subprocess.Popen(
        list(args), cwd=ROOT, env=env, stdout=out, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=PHASE_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        code, err = -1, b"timeout"
    finally:
        if stdout_path:
            out.close()
    elapsed = time.perf_counter() - start
    if code != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        print(f"perfbench: {' '.join(args[1:4])} exited {code}: {' | '.join(tail)}",
              file=sys.stderr)
    return code, elapsed


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process multiprocessing starts for
    spawned workers, which would otherwise outlive the run by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def read_jsonl(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
