"""Exception types raised by the parksearch package, and the checkers that read graph documents, scenario
configs and settings: each names the key path of a bad value and raises the error class it is given."""

import math
import numbers
import sys

from .geo import GeoPoint

_FLOAT_MAX = sys.float_info.max


class ParkSearchError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ParkSearchError):
    """Graph document has the wrong shape: bad JSON, a value that is not an object or a list, unknown or
    missing keys, or an id that is neither a string nor an integer."""


class GraphValidationError(ParkSearchError):
    """Graph document has a bad value: a number that is not one or is out of range, a duplicate or a
    dangling id."""


class NoPathError(ParkSearchError):
    """No resource is reachable from the planning position."""


class TraceError(ParkSearchError):
    """Occupation trace is malformed or inconsistent."""


class ConfigError(ParkSearchError, ValueError):
    """Scenario configuration or planner settings are invalid."""


def check(ok, name: str, need: str, value, *, error: type[ParkSearchError] = ConfigError) -> None:
    """An ``error`` naming ``name`` and what its value must be, unless ``ok``."""
    if not ok:
        raise error(f"{name} must be {need}, got {value!r}")


def check_keys(obj, name: str, allowed: set[str], required=(), *,
               error: type[ParkSearchError] = ConfigError) -> None:
    """An ``error`` unless ``obj`` is an object with only ``allowed`` keys and every ``required`` one; ``name``
    is its key path, empty for the document itself."""
    if not isinstance(obj, dict):
        raise error(f"{name or 'the document'} must be an object, got {obj!r}")
    if not allowed.issuperset(obj):
        raise error(f"{name or 'the document'} has unknown keys: {sorted(obj.keys() - allowed)}")
    for key in required:
        if key not in obj:
            raise error(f"{name}.{key} is missing" if name else f"{key} is missing")


def check_id(value, name: str, *, error: type[ParkSearchError] = ConfigError) -> str:
    """``value``, a string or an integer (never a bool), as a string id."""
    if type(value) is str:
        return value
    check(isinstance(value, int) and not isinstance(value, bool), name, "a string or an integer id", value,
          error=error)
    return str(value)


def check_number(value, name: str, *, integer: bool = False, positive: bool = True,
                 error: type[ParkSearchError] = ConfigError) -> float | int:
    """``value`` (numpy scalars too, never bools) as a finite Python int or float in bounds."""
    if type(value) is float and not integer or type(value) is int:  # the JSON types skip the ABC checks
        ok = value <= _FLOAT_MAX  # False for NaN, inf and ints too large for a float
    else:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Integral if integer else numbers.Real)
              and math.isfinite(value))
    if ok and (value > 0 if positive else value >= 0):
        return int(value) if integer else float(value)
    need = ("a positive " if positive else "a non-negative ") + ("integer" if integer else "number")
    raise error(f"{name} must be {need}, got {value!r}")


def check_point(value, name: str, *, error: type[ParkSearchError] = ConfigError) -> GeoPoint:
    """``value``, a ``[lat, lon]`` pair of numbers in degrees, as a GeoPoint."""
    try:
        lat, lon = value
        if not type(lat) is type(lon) is float:  # JSON floats skip this; ints and numpy floats pass, bools not
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (lat, lon)):
                raise TypeError
            lat, lon = float(lat), float(lon)
        return GeoPoint(lat, lon)  # checks the ranges
    except (TypeError, ValueError):
        raise error(f"{name} must be a [lat, lon] pair in degrees, got {value!r}") from None
