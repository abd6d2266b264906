"""OS-level power governance substrate.

- :mod:`~repro.governor.idle` — idle-state (C-state) governors: a
  menu-style EWMA predictor plus fixed/oracle policies.
"""

from repro.governor.idle import (
    FixedGovernor,
    IdleGovernor,
    MenuGovernor,
    OracleGovernor,
    ReplayOracleGovernor,
)

__all__ = [
    "FixedGovernor",
    "IdleGovernor",
    "MenuGovernor",
    "OracleGovernor",
    "ReplayOracleGovernor",
]
