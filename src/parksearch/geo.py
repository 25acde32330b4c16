"""Geographic primitives: great-circle distance and walking times."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
WALKING_SPEED_MPS = 1.42


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def great_circle_m_many(lat: np.ndarray, lon: np.ndarray, point: GeoPoint) -> np.ndarray:
    """Haversine distance from each (lat, lon) pair to a fixed point, in meters; the package's only haversine."""
    phi1 = np.radians(np.asarray(lat, dtype=float))
    phi2 = math.radians(point.lat)
    dphi = phi2 - phi1
    dlam = np.radians(point.lon - np.asarray(lon, dtype=float))
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def latitude_band(lat: np.ndarray, point: GeoPoint, radius_m: float) -> np.ndarray:
    """Ascending indices of the latitudes ``lat`` within ``radius_m`` of ``point``'s. A great circle is
    never shorter than its meridian gap, so no point outside the band lies within ``radius_m`` of
    ``point``. The band is widened by 1e-5 degrees (1.1 m), 20 times the most the kernel's rounding was
    seen to fall below the meridian gap (5e-7 degrees, near opposite poles, where the arcsine is
    ill-conditioned), so the kernel puts every point outside the band farther than the radius."""
    half = math.degrees(radius_m / EARTH_RADIUS_M) + 1e-5
    return np.flatnonzero(np.abs(np.asarray(lat, dtype=float) - point.lat) <= half)


def great_circle_m(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters: the kernel on a one-element array, so it equals ``a``'s element of any
    longer call bit for bit (a 0-d call may not)."""
    return float(great_circle_m_many(np.array([a.lat]), np.array([a.lon]), b)[0])


def walking_time(a: GeoPoint, b: GeoPoint) -> float:
    """Seconds to walk the great-circle distance at 1.42 m/s."""
    return great_circle_m(a, b) / WALKING_SPEED_MPS


def walking_time_many(lat: np.ndarray, lon: np.ndarray, point: GeoPoint) -> np.ndarray:
    return great_circle_m_many(lat, lon, point) / WALKING_SPEED_MPS
