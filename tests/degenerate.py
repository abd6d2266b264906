"""A constant service-time distribution for deterministic tests."""

from repro.errors import ConfigurationError
from repro.simkit.distributions import Distribution


class Degenerate(Distribution):
    """A constant: always returns ``value``."""

    def __init__(self, value: float):
        if value < 0:
            raise ConfigurationError(f"degenerate value must be >= 0, got {value}")
        self._value = float(value)

    def sample(self) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Degenerate({self._value})"
