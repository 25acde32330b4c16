"""Exception types raised by the parksearch package."""


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


class DegenerateTargetError(AdaptionError):
    """Random walks cannot leave the target's street and no path was recorded."""
