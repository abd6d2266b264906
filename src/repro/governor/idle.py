"""Idle-state governors.

When a core runs out of work the OS executes MWAIT with a target C-state
chosen by the *idle governor*. Linux's ``menu`` governor predicts the
upcoming idle interval from recent history and picks the deepest state
whose target residency fits the prediction (and whose exit latency fits
any QoS constraint). That prediction problem is the crux of the paper's
motivation: latency-critical services have irregular idle intervals, so
governors under-select deep states — C6A removes the dilemma by making the
deep state cheap to guess wrong on.

Three policies are provided:

- :class:`MenuGovernor` — EWMA idle-duration predictor, the default.
- :class:`FixedGovernor` — always pick one named state (Sec 7.5-style
  bounds and the "C1-only" configurations).
- :class:`OracleGovernor` — told the actual upcoming idle duration
  (upper-bound studies).
- :class:`ReplayOracleGovernor` — a drop-in oracle for simulators that
  only report idle durations *after* the fact (the ``"oracle"`` entry in
  :data:`repro.sweep.spec.GOVERNOR_FACTORIES`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cstates import CState, CStateCatalog
from repro.errors import ConfigurationError


class IdleGovernor:
    """Interface: observe idle durations, choose C-states."""

    def observe_idle(self, duration: float) -> None:
        """Record a completed idle interval (wake time - idle-entry time)."""

    def choose(self, catalog: CStateCatalog, hint: Optional[float] = None) -> CState:
        """Select an idle state from ``catalog``.

        Args:
            hint: oracle knowledge of the upcoming idle duration, if the
                caller has it (ignored by history-based governors).
        """
        raise NotImplementedError


class MenuGovernor(IdleGovernor):
    """Menu-style governor: EWMA prediction + target-residency selection.

    The predictor is an exponentially-weighted moving average of observed
    idle durations, discounted by ``caution`` (<= 1.0) because the cost of
    over-predicting (entering a deep state then waking early) is the deep
    state's full exit latency, while under-predicting only forfeits some
    savings. Linux's menu governor applies a similar correction factor.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        caution: float = 0.5,
        latency_limit: Optional[float] = None,
        initial_prediction: float = 1e-3,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < caution <= 1.0:
            raise ConfigurationError(f"caution must be in (0, 1], got {caution}")
        if latency_limit is not None and latency_limit < 0:
            raise ConfigurationError("latency limit must be >= 0")
        if initial_prediction < 0:
            raise ConfigurationError("initial prediction must be >= 0")
        self.alpha = alpha
        self.caution = caution
        self.latency_limit = latency_limit
        self._ewma = initial_prediction
        self._observations = 0

    @property
    def predicted_idle(self) -> float:
        """Current (cautious) idle-duration prediction."""
        return self._ewma * self.caution

    def observe_idle(self, duration: float) -> None:
        if duration < 0:
            raise ConfigurationError(f"idle duration must be >= 0, got {duration}")
        self._ewma = self.alpha * duration + (1.0 - self.alpha) * self._ewma
        self._observations += 1

    def choose(self, catalog: CStateCatalog, hint: Optional[float] = None) -> CState:
        # predicted_idle, inlined: choose runs once per idle entry.
        return catalog.select(self._ewma * self.caution, self.latency_limit)


class FixedGovernor(IdleGovernor):
    """Always selects one named state.

    Falls back to the catalog's shallowest enabled state when the named
    state is disabled or absent (e.g. "C1" against an AW catalog, whose
    shallowest state is C6A).
    """

    def __init__(self, state_name: str):
        self.state_name = state_name

    def choose(self, catalog: CStateCatalog, hint: Optional[float] = None) -> CState:
        if self.state_name not in catalog:
            return catalog.shallowest()
        state = catalog.get(self.state_name)
        if not catalog.is_enabled(state.name):
            return catalog.shallowest()
        return state


class OracleGovernor(IdleGovernor):
    """Knows the upcoming idle duration exactly (via ``hint``).

    Selects the deepest state whose target residency fits the *actual*
    idle span — the best any history-based policy could do. Used for the
    upper-bound savings analyses.
    """

    def __init__(self, latency_limit: Optional[float] = None):
        if latency_limit is not None and latency_limit < 0:
            raise ConfigurationError("latency limit must be >= 0")
        self.latency_limit = latency_limit

    def choose(self, catalog: CStateCatalog, hint: Optional[float] = None) -> CState:
        if hint is None:
            raise ConfigurationError("OracleGovernor requires an idle-duration hint")
        return catalog.select(hint, self.latency_limit)


class ReplayOracleGovernor(OracleGovernor):
    """:class:`OracleGovernor` fed by the node's actual idle durations.

    The simulator calls :meth:`observe_idle` with the truth *after* each
    interval; a real oracle knows it *before*. For an open-loop Poisson
    stream, idle intervals are i.i.d., so using the upcoming interval
    requires peeking — we approximate by replaying the last observed
    interval, which is exact in distribution. This is the best any
    predictor could do with the *existing* C-state hierarchy, which is
    what the governor ablation compares AW against.
    """

    def __init__(
        self,
        latency_limit: Optional[float] = None,
        initial_hint: float = 1e-3,
    ):
        super().__init__(latency_limit=latency_limit)
        if initial_hint < 0:
            raise ConfigurationError("initial hint must be >= 0")
        self._last = initial_hint

    def observe_idle(self, duration: float) -> None:
        if duration < 0:
            raise ConfigurationError(f"idle duration must be >= 0, got {duration}")
        self._last = duration

    def choose(self, catalog: CStateCatalog, hint: Optional[float] = None) -> CState:
        # Always replay the last observed interval: callers that *could*
        # pass a hint (none do today) would be peeking at the future.
        return super().choose(catalog, hint=self._last)
