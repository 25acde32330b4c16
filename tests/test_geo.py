import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from parksearch import geo
from parksearch.availability import CtmcParams
from parksearch.engine import run_simulation
from parksearch.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    great_circle_m,
    great_circle_m_many,
    latitude_band,
    walking_time,
    walking_time_many,
)
from parksearch.graph import load_graph
from parksearch.planners import PLANNER_KINDS, PlannerSettings
from parksearch.scenario import RateZone, build_grid_graph_doc, generate_data_driven, zone_rate_overrides

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0  # meters per degree along a meridian


def test_identical_points_walk_zero():
    p = GeoPoint(12.5, -7.25)
    assert walking_time(p, p) == 0.0


def test_142_meters_is_100_seconds():
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(142.0 / M_PER_DEG, 0.0)
    assert great_circle_m(a, b) == pytest.approx(142.0, abs=1e-6)
    assert walking_time(a, b) == pytest.approx(100.0, abs=1e-6)


def test_milli_degree_of_longitude_at_equator():
    # haversine evaluated independently: distance = R * dlon for dlat=0 at the equator
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 0.001)
    expected_m = EARTH_RADIUS_M * math.radians(0.001)
    assert expected_m == pytest.approx(111.1949, abs=1e-3)
    assert great_circle_m(a, b) == pytest.approx(expected_m, abs=1e-6)
    assert walking_time(a, b) == pytest.approx(78.306, abs=1e-3)


def test_walking_time_symmetric_and_zero_iff_coincident():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        b = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        assert walking_time(a, b) == pytest.approx(walking_time(b, a), rel=1e-12)
        if (a.lat, a.lon) != (b.lat, b.lon):
            assert walking_time(a, b) > 0.0
        assert walking_time(a, a) == 0.0


def test_vectorized_matches_scalar():
    # one haversine: the scalar call is the kernel on a one-element array, so it equals the element bit for
    # bit, at city scale and within 60 degrees
    rng = np.random.default_rng(3)
    ref = GeoPoint(10.0, 20.0)
    for spread_deg in (0.05, 60.0):
        lat = ref.lat + rng.uniform(-spread_deg, spread_deg, size=2000)
        lon = ref.lon + rng.uniform(-spread_deg, spread_deg, size=2000)
        d = great_circle_m_many(lat, lon, ref)
        w = walking_time_many(lat, lon, ref)
        for i in range(len(lat)):
            p = GeoPoint(float(lat[i]), float(lon[i]))
            assert great_circle_m(p, ref) == d[i], (spread_deg, p)
            assert walking_time(p, ref) == w[i], (spread_deg, p)


def test_kernel_on_an_index_subset_equals_the_full_call():
    # the policies run the kernel on a latitude band's points alone, so each element must not depend on
    # the array around it; lengths around the SIMD widths cover vector bodies and scalar tails
    rng = np.random.default_rng(11)
    ref = GeoPoint(48.1, 11.6)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257, 1000):
        lat = ref.lat + rng.uniform(-0.5, 0.5, size=n)
        lon = ref.lon + rng.uniform(-0.5, 0.5, size=n)
        full = great_circle_m_many(lat, lon, ref)
        for k in {0, 1, n // 3, n - 1, n}:
            idx = np.sort(rng.choice(n, size=k, replace=False))
            sub = great_circle_m_many(lat[idx], lon[idx], ref)
            assert sub.tolist() == full[idx].tolist(), (n, k)
            if k:
                assert great_circle_m_many(lat[idx[-1]:idx[-1] + 1], lon[idx[-1]:idx[-1] + 1], ref)[0] == full[idx[-1]]


def band_far_mask(lat, lon, point, radius_m):
    """The far mask as HeuristicPolicy builds it: the kernel on the latitude band, far elsewhere."""
    far = np.ones(len(lat), dtype=bool)
    band = latitude_band(lat, point, radius_m)
    far[band] = great_circle_m_many(lat[band], lon[band], point) > radius_m
    return far


def band_argmin(lat, lon, point, guess):
    """The first argmin as RandomPolicy finds it: the kernel on the band as wide as ``guess``'s distance."""
    radius = great_circle_m_many(lat[guess:guess + 1], lon[guess:guess + 1], point)[0]
    band = latitude_band(lat, point, radius)
    return int(band[np.argmin(great_circle_m_many(lat[band], lon[band], point))])


def band_worlds():
    """Seeded (lat, lon, point) worlds: city scale, near-identical latitudes, the poles, the antimeridian
    and duplicated points with exact ties."""
    rng = np.random.default_rng(29)
    for _ in range(5):
        point = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
        yield point.lat + rng.uniform(-0.05, 0.05, 500), point.lon + rng.uniform(-0.05, 0.05, 500), point
        # within a few millimetres of the point's latitude, some exactly on it
        lat = point.lat + rng.uniform(-3e-8, 3e-8, 500)
        lat[::7] = point.lat
        yield lat, point.lon + rng.uniform(-1e-7, 1e-7, 500), point
    for pole in (90.0, -90.0):
        # near the opposite pole the arcsine is ill-conditioned and the kernel falls furthest below the
        # meridian gap
        near = np.sign(pole) * 10.0 ** rng.uniform(-9, -2, 200)
        lat = np.concatenate([np.full(20, pole), pole - near, rng.uniform(-90, 90, 60), np.full(20, -pole), near - pole])
        lon = rng.uniform(-180, 180, len(lat))
        yield lat, lon, GeoPoint(pole, float(rng.uniform(-180, 180)))
        yield lat, lon, GeoPoint(pole - float(near[0]), 0.0)
    for side in (180.0, -180.0):
        lon = np.concatenate([np.full(20, side), np.full(20, -side), rng.uniform(179.9, 180, 200) * np.sign(side),
                              -np.sign(side) * rng.uniform(179.9, 180, 200)])
        yield rng.uniform(-0.05, 0.05, len(lon)), lon, GeoPoint(0.0, side)
    # duplicated points, so the nearest distance is tied exactly between several indices
    lat, lon = rng.uniform(-0.01, 0.01, 40), rng.uniform(-0.01, 0.01, 40)
    order = rng.permutation(120)
    yield np.tile(lat, 3)[order], np.tile(lon, 3)[order], GeoPoint(0.001, 0.002)
    yield np.tile(lat, 3)[order], np.tile(lon, 3)[order], GeoPoint(float(lat[5]), float(lon[5]))


def test_latitude_band_keeps_the_full_far_mask_and_first_argmin():
    # every point's own distance is a radius, the tightest case for the band's margin, and a guess
    worlds = 0
    for lat, lon, point in band_worlds():
        worlds += 1
        full = great_circle_m_many(lat, lon, point)
        for r in (0.0, 1e-4, 1e-3, 0.01, 0.5, 10.0, 150.0, 1000.0, 1e5, 1e7, 2.1e7, *full.tolist()):
            assert band_far_mask(lat, lon, point, r).tolist() == (full > r).tolist(), (point, r)
        first = int(np.argmin(full))
        for guess in range(len(lat)):
            assert band_argmin(lat, lon, point, guess) == first, (point, guess)
    assert worlds == 18
    # the band is ascending and holds every point within the radius
    lat = np.array([0.0, 1e-5, -2e-5, 0.0, 5e-6])
    assert latitude_band(lat, GeoPoint(0.0, 0.0), 0.0).tolist() == [0, 1, 3, 4]


def test_a_run_makes_no_scalar_great_circle_call(monkeypatch):
    # Every distance a run needs comes from the vectorized kernel: one run of all seven kinds, with
    # rate zones and data-driven destinations, never calls the scalar formula.
    calls = []
    scalar = geo.great_circle_m
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "parksearch" and getattr(module, "great_circle_m", None) is scalar:
            monkeypatch.setattr(module, "great_circle_m", lambda a, b: calls.append((a, b)) or scalar(a, b))

    graph = load_graph(build_grid_graph_doc(5, 5, n_resources=40, seed=3))
    spots = list(graph.resources.values())
    events = [(r.position, 600.0 * k + i) for k in range(3) for i, r in enumerate(spots[:7])]
    agents = generate_data_driven(graph, events, "n0000", "rpl", eps_m=200.0, min_pts=3, n_clusters=2,
                                  rng=np.random.default_rng(5))
    agents = [replace(a, planner=PLANNER_KINDS[i % len(PLANNER_KINDS)]) for i, a in enumerate(agents)]
    zones = (RateZone(spots[0].position, 250.0, CtmcParams.from_mean_times(300.0, 100.0)),
             RateZone(spots[-1].position, 250.0, CtmcParams.from_mean_times(100.0, 300.0)))
    overrides = zone_rate_overrides(graph, zones)
    records = run_simulation(graph, agents, CtmcParams.from_mean_times(300.0, 300.0), params_by_resource=overrides,
                             settings=PlannerSettings(determinizations=8, adaption_samples=8), horizon_s=7200.0,
                             seed=2, measure_computation=False)
    assert overrides and {a.planner for a in agents} == set(PLANNER_KINDS)
    assert {r.planner for r in records if r.status == "parked"} == set(PLANNER_KINDS)
    assert calls == []


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -181.0)
