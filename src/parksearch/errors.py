"""Exception types raised by the parksearch package, and the number check that raises ``ConfigError``."""

import math
import numbers


class ParkSearchError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ParkSearchError):
    """Graph document is malformed (bad JSON, wrong types, unknown fields)."""


class GraphValidationError(ParkSearchError):
    """Graph content violates an invariant (dangling ids, bad ranges)."""


class NoPathError(ParkSearchError):
    """No resource is reachable from the planning position."""


class TraceError(ParkSearchError):
    """Occupation trace is malformed or inconsistent."""


class ConfigError(ParkSearchError, ValueError):
    """Scenario configuration or planner settings are invalid."""


class AdaptionError(ParkSearchError):
    """Probability adaption walks cannot be run for a target."""


def check_number(value, name: str, *, integer: bool = False, positive: bool = True) -> float | int:
    """``value`` (numpy scalars too, never bools) as a finite Python int or float in bounds, else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        need = ("a positive " if positive else "a non-negative ") + ("integer" if integer else "number")
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return int(value) if integer else float(value)
