"""Server-CPU microarchitecture substrate.

Models the parts of a Skylake-class server processor the evaluation needs:

- :mod:`~repro.uarch.core` — a CPU core: frequency points, C-state
  residency tracking, active/idle power.
- :mod:`~repro.uarch.coherence` — snoop traffic generation and the cost
  of serving it in each idle state.
- :mod:`~repro.uarch.turbo` — a token-bucket thermal/Turbo budget
  (RAPL PL1/PL2-style) reproducing the Sec 7.3 interaction.
- :mod:`~repro.uarch.package` — a multi-core package with uncore power.
"""

from repro.uarch.core import Core, CoreStats
from repro.uarch.coherence import SnoopModel, SnoopTrafficGenerator
from repro.uarch.turbo import TurboBudget, TurboConfig
from repro.uarch.package import Package, PackageConfig

__all__ = [
    "Core",
    "CoreStats",
    "SnoopModel",
    "SnoopTrafficGenerator",
    "TurboBudget",
    "TurboConfig",
    "Package",
    "PackageConfig",
]
