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
