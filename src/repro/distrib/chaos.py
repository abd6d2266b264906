"""Fault injection for the distributed executor's test harness.

Workers are separate processes, so faults are injected through
environment variables: the coordinator (or a test) sets a chaos plan in
the worker's environment, and the worker loop consults
:meth:`ChaosPlan.from_env` at startup and calls
:meth:`ChaosPlan.maybe_kill` at its three commit-protocol phases:

``claim``
    immediately after the lease is committed to the queue — the row is
    leased but no work has happened; recovery must requeue it.
``compute``
    after the spec is parsed, before the simulation runs — exercises
    mid-flight lease expiry while the point is genuinely in progress.
``commit``
    after the result is written to the shared store but *before* the
    queue row is marked done — the nastiest window: the work exists but
    the ledger says it doesn't. The coordinator's store-poll settles
    the row without re-running the point.

A kill is ``os.kill(os.getpid(), SIGKILL)`` — no atexit hooks, no
flushes, no goodbye — which is exactly what a OOM-kill or a yanked
node looks like to the rest of the fleet.

Everything here is inert unless explicitly armed: production workers
run with no ``REPRO_CHAOS_*`` variables set and ``ChaosPlan.from_env``
returns the do-nothing plan.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Optional

#: Environment variable names (coordinator/test side sets, worker reads).
ENV_KILL_PHASE = "REPRO_CHAOS_KILL_PHASE"
ENV_KILL_AT = "REPRO_CHAOS_KILL_AT"
ENV_KILL_WORKER = "REPRO_CHAOS_KILL_WORKER"
ENV_FREEZE_HEARTBEAT = "REPRO_CHAOS_FREEZE_HEARTBEAT"

#: Recognised kill phases, in protocol order.
PHASES = ("claim", "compute", "commit")


@dataclass(frozen=True)
class ChaosPlan:
    """One worker's armed faults (immutable; parsed once at startup).

    Attributes:
        kill_phase: protocol phase at which to SIGKILL, or None.
        kill_at: 1-based claim index the kill triggers on — ``2`` means
            "survive the first point, die on the second", which makes a
            killed worker leave both completed work *and* a torn lease
            behind.
        kill_worker: only arm the kill in the worker whose id equals
            this (None arms every worker that reads the plan).
        freeze_heartbeat: worker never extends its lease after the
            claim — it keeps simulating, oblivious, while the
            coordinator sees a flatlined heartbeat and requeues.
    """

    kill_phase: Optional[str] = None
    kill_at: int = 1
    kill_worker: Optional[str] = None
    freeze_heartbeat: bool = False

    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> "ChaosPlan":
        """Parse the plan from ``os.environ`` (or a test-supplied dict)."""
        env = os.environ if env is None else env
        phase = env.get(ENV_KILL_PHASE) or None
        if phase is not None and phase not in PHASES:
            raise ValueError(
                f"{ENV_KILL_PHASE}={phase!r} is not one of {PHASES}"
            )
        return cls(
            kill_phase=phase,
            kill_at=int(env.get(ENV_KILL_AT, "1")),
            kill_worker=env.get(ENV_KILL_WORKER) or None,
            freeze_heartbeat=env.get(ENV_FREEZE_HEARTBEAT, "") == "1",
        )

    def to_env(self) -> dict:
        """Environment fragment that arms this plan in a spawned worker."""
        out = {}
        if self.kill_phase is not None:
            out[ENV_KILL_PHASE] = self.kill_phase
            out[ENV_KILL_AT] = str(self.kill_at)
            if self.kill_worker is not None:
                out[ENV_KILL_WORKER] = self.kill_worker
        if self.freeze_heartbeat:
            out[ENV_FREEZE_HEARTBEAT] = "1"
        return out

    @property
    def armed(self) -> bool:
        return self.kill_phase is not None or self.freeze_heartbeat

    def maybe_kill(self, phase: str, claim_index: int, worker: str) -> None:
        """SIGKILL the current process if this plan says so.

        Called by the worker loop at each protocol phase;
        ``claim_index`` is 1-based over the worker's lifetime.
        """
        if self.kill_phase != phase:
            return
        if self.kill_worker is not None and self.kill_worker != worker:
            return
        if claim_index != self.kill_at:
            return
        os.kill(os.getpid(), signal.SIGKILL)
