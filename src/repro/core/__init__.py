"""AgileWatts: the paper's primary contribution.

This package implements the C6A/C6AE deep idle-state architecture:

- :mod:`~repro.core.cstates` — C-state model and catalogs (Tables 1 & 2).
- :mod:`~repro.core.ufpg` — Units' Fast Power-Gating (Sec 4.1, 5.1.1).
- :mod:`~repro.core.ccsm` — Cache Coherence & Sleep Mode (Sec 4.2, 5.1.2).
- :mod:`~repro.core.pma_flow` — the C6A power-management FSM (Sec 4.3).
- :mod:`~repro.core.latency` — transition-latency derivations (Sec 3, 5.2).
- :mod:`~repro.core.ppa` — power-performance-area model (Sec 5.1, Table 3).
- :mod:`~repro.core.architecture` — :class:`AgileWattsDesign`, tying the
  subsystems into a drop-in C-state catalog for simulation and analysis.
"""

from repro.core.cstates import (
    CState,
    CStateCatalog,
    ComponentStates,
    FrequencyPoint,
    agilewatts_catalog,
    skylake_baseline_catalog,
)
from repro.core.ufpg import UFPG, UFPGConfig
from repro.core.ccsm import CCSM, CCSMConfig
from repro.core.pma_flow import C6AFlow, FlowStep
from repro.core.latency import (
    C6LatencyModel,
    C6ALatencyModel,
    CacheFlushModel,
)
from repro.core.ppa import PPABreakdown, PPAModel, PPAEntry
from repro.core.architecture import AgileWattsDesign

__all__ = [
    "CState",
    "CStateCatalog",
    "ComponentStates",
    "FrequencyPoint",
    "agilewatts_catalog",
    "skylake_baseline_catalog",
    "UFPG",
    "UFPGConfig",
    "CCSM",
    "CCSMConfig",
    "C6AFlow",
    "FlowStep",
    "C6LatencyModel",
    "C6ALatencyModel",
    "CacheFlushModel",
    "PPABreakdown",
    "PPAModel",
    "PPAEntry",
    "AgileWattsDesign",
]
