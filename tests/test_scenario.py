import copy
import dataclasses
import hashlib
import json
import math
import re
import warnings
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest

from parksearch import scenario as scenario_module
from parksearch.availability import CtmcParams
from parksearch.engine import read_results, write_results
from parksearch.engine import MetricsRecord
from parksearch.errors import ConfigError, ParkSearchError
from parksearch.geo import EARTH_RADIUS_M, GeoPoint, great_circle_m
from parksearch.graph import load_graph
from parksearch.planners import PlannerSettings
from parksearch.scenario import (
    Cluster,
    build_grid_graph_doc,
    dbscan,
    generate_data_driven,
    generate_single_destination,
    load_config,
    occupation_points,
    parse_config,
    run_batch,
    run_scenario,
    summarize_results,
    zone_rate_overrides,
)

from conftest import trace_from_rows
from drive_time_oracle import dense_travel_times

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
DEMO_TRACE = Path(__file__).resolve().parent.parent / "data" / "demo_trace.csv"


def write_demo_world(tmp_path, rows=4, cols=4, n_resources=10):
    doc = build_grid_graph_doc(rows, cols, n_resources=n_resources, seed=1)
    graph_path = tmp_path / "grid.json"
    graph_path.write_text(json.dumps(doc))
    return graph_path, doc


def base_config(graph_path, kind="rpl", seed=1):
    return {
        "graph": graph_path.name,
        "occupation": {"synthetic": {"lambda_inv_s": 300.0, "mu_inv_s": 900.0}},
        "destinations": {
            "mode": "single",
            "destination": [0.0005, 0.0005],
            "start_node": "n0000",
            "agents": 4,
            "start_time_s": 0.0,
        },
        "planner": {"kind": kind},
        "seed": seed,
        "horizon_s": 3000.0,
    }


def test_config_validation(tmp_path):
    graph_path, _ = write_demo_world(tmp_path)
    cfg_path = tmp_path / "s.json"

    doc = base_config(graph_path)
    doc["occupation"] = {"trace": "missing.csv", "synthetic": {}}
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg_path)

    doc = base_config(graph_path)
    doc["wat"] = 1
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg_path)

    doc = base_config(graph_path)
    doc["planner"]["kind"] = "psychic"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg_path)

    doc = base_config(graph_path)
    doc["graph"] = "absent.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg_path)

    doc = base_config(graph_path)
    doc["destinations"] = {"mode": "data_driven", "start_node": "n0000"}
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg_path)  # eps/min_pts are mandatory


@pytest.mark.parametrize("path, value", [
    ("seed", "x"),
    ("destinations.destination", 5),
    ("occupation.synthetic.lambda_inv_s", 0),
    ("horizon_s", -5),
    ("destinations.agents", "many"),
    ("destinations.start_node", [1]),
    ("planner.determinizations", 0),
    ("occupation.synthetic.zones", 5),
    ("graph", 5),
    ("name", "../escaped"),
    ("name", "a/b"),
    ("name", ""),
])
def test_malformed_config_value_names_its_key(tmp_path, path, value):
    graph_path, _ = write_demo_world(tmp_path)
    doc = base_config(graph_path, kind="hs")
    *parents, key = path.split(".")
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the way would hide the real cause
        with pytest.raises(ConfigError, match=re.escape(path)):
            run_scenario(parse_config(doc, base_dir=tmp_path))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# 10**30 is left out: as horizon_s or destinations.agents it is accepted, and the run does not end
BAD_VALUES = (None, [], {}, "x", -1, 0, 1e309, True, math.nan, "n9999", [1], [[1, 2]])


def key_paths(node, prefix=()):
    """Every key path under a document, list items included, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from key_paths(child, (*prefix, key))


def test_config_mutations_raise_named_errors_or_finish(monkeypatch):
    """Each key path of each bundled config, under a 300 s horizon, set to each bad value: the run
    raises a ParkSearchError, or it ends with one record per agent, each with a final status and
    finite totals; never a raw exception."""
    agents, run_simulation = [], scenario_module.run_simulation

    def recording(graph, specs, *args, **kwargs):
        agents[:] = specs
        return run_simulation(graph, specs, *args, **kwargs)

    monkeypatch.setattr(scenario_module, "run_simulation", recording)
    outcomes = Counter()
    for path in sorted(CONFIGS.glob("*.json")):
        doc = {**json.loads(path.read_text()), "horizon_s": 300.0}
        for keys in key_paths(doc):
            for value in BAD_VALUES:
                case = copy.deepcopy(doc)
                *parents, last = keys
                section = case
                for key in parents:
                    section = section[key]
                section[last] = value
                where = f"{path.name} {keys} = {value!r}"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # an hour without clusters
                        records = run_scenario(parse_config(case, base_dir=CONFIGS))
                except ParkSearchError as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                except Exception as exc:
                    pytest.fail(f"{where}: raw {type(exc).__name__}: {exc}")
                assert sorted(r.agent_id for r in records) == sorted(s.id for s in agents), where
                assert all(r.status in ("parked", "timed_out", "stranded") for r in records), where
                assert all(math.isfinite(x) for r in records for x in (r.total_trip_s, r.taxi_s, r.parking_s)), where
                outcomes["finished"] += 1
    # 56 key paths, 12 values each
    assert outcomes == {"ConfigError": 651, "finished": 21}


def explicit_agents(agents):
    return {"mode": "explicit", "agents": agents}


@pytest.mark.parametrize("path, destinations", [
    ("destinations.agents[0]", explicit_agents([{"id": "a", "start_node": "n0000", "speed": 3}])),
    ("destinations.agents[0].id", explicit_agents([{"start_node": "n0000", "destination": [0.0, 0.0]}])),
    ("destinations.agents[0].destination", explicit_agents([{"id": "a", "start_node": "n0000", "destination": 5}])),
    ("destinations.agents[0].planner",
     explicit_agents([{"id": "a", "start_node": "n0000", "destination": [0.0, 0.0], "planner": "psychic"}])),
    ("destinations.agents", explicit_agents("abc")),
    ("destinations.agents[1].id", explicit_agents([{"id": "a", "start_node": "n0000", "destination": [0.0, 0.0]},
                                                   {"id": "a", "start_node": "n0001", "destination": [0.0, 0.0]}])),
    ("destinations.trace", {"mode": "data_driven", "start_node": "n0000", "eps_m": 100.0, "min_pts": 3}),
    ("destinations.start_node", {"mode": "data_driven", "trace": str(DEMO_TRACE), "start_node": {}, "eps_m": 100.0,
                                 "min_pts": 3}),
    ("destinations.agents[0].start_node",
     explicit_agents([{"id": "a", "start_node": 1.5, "destination": [0.0, 0.0]}])),
])
def test_destination_errors_raise_at_parse_time(tmp_path, path, destinations):
    graph_path, _ = write_demo_world(tmp_path)
    doc = base_config(graph_path)
    doc["destinations"] = destinations
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(doc, base_dir=tmp_path)


def test_explicit_agents_fill_defaults_and_run(tmp_path):
    graph_path, _ = write_demo_world(tmp_path)
    doc = base_config(graph_path, kind="rpl")
    doc["destinations"] = explicit_agents([
        {"id": 7, "start_node": "n0000", "destination": [0.0005, 0.0005]},
        {"id": "b", "start_node": "n0003", "destination": [0, 0.001], "start_time_s": 30, "planner": "heuristic"},
    ])
    config = parse_config(doc, base_dir=tmp_path)
    assert config.destinations["agents"] == [
        {"id": "7", "start_node": "n0000", "destination": [0.0005, 0.0005], "start_time_s": 0.0, "planner": "rpl"},
        {"id": "b", "start_node": "n0003", "destination": [0.0, 0.001], "start_time_s": 30.0, "planner": "heuristic"},
    ]
    assert parse_config(json.loads(json.dumps(config.to_dict())), base_dir=tmp_path / "elsewhere") == config
    records = run_scenario(config)
    assert {(r.agent_id, r.planner) for r in records} == {("7", "rpl"), ("b", "heuristic")}


def test_every_planner_setting_round_trips(tmp_path):
    """All nine settings off their defaults, the non-negative ones at their bound of 0, parse to those values
    and come back equal through the config echo."""
    graph_path, _ = write_demo_world(tmp_path)
    doc = base_config(graph_path, kind="hs")
    doc["planner"].update(determinizations=7, scope_horizon_s=90.5, heuristic_far_radius_m=0,
                          heuristic_accept_walk_s=0, heuristic_relax_s_per_min=0)
    doc["adaption"] = {"samples": 3, "isochrone_s": 45.0, "visit_decay": 0, "max_steps": 0}
    config = parse_config(doc, base_dir=tmp_path)
    expected = PlannerSettings(determinizations=7, scope_horizon_s=90.5, heuristic_far_radius_m=0.0,
                               heuristic_accept_walk_s=0.0, heuristic_relax_s_per_min=0.0, adaption_samples=3,
                               adaption_isochrone_s=45.0, adaption_visit_decay=0.0, adaption_max_steps=0)
    assert config.settings == expected
    assert all(getattr(config.settings, f.name) != f.default for f in dataclasses.fields(PlannerSettings))
    assert [type(getattr(config.settings, f.name)) for f in dataclasses.fields(PlannerSettings)] == [
        int, float, float, float, float, int, float, float, int]
    assert parse_config(json.loads(json.dumps(config.to_dict())), base_dir=tmp_path / "elsewhere") == config


def test_generate_single_destination(tmp_path):
    graph_path, doc = write_demo_world(tmp_path)
    graph = load_graph(doc)
    dest = GeoPoint(0.0005, 0.0005)
    specs = generate_single_destination(graph, dest, "n0000", 20, 0.0, "rpl")
    assert len(specs) == 20
    assert len({s.id for s in specs}) == 20
    assert all((s.start_node, s.destination, s.start_time, s.planner)
               == ("n0000", dest, 0.0, "rpl") for s in specs)

    assert len(generate_single_destination(graph, dest, "n0000", 1, 0.0, "hs")) == 1
    for count in (0, "3", 2.5, True, None):
        with pytest.raises(ConfigError, match="n_agents must be a positive integer"):
            generate_single_destination(graph, dest, "n0000", count, 0.0, "rpl")
    with pytest.raises(ConfigError):
        generate_single_destination(graph, dest, "ghost", 3, 0.0, "rpl")


def cluster_points(center_lat, center_lon, n, spread_m, rng):
    return [
        GeoPoint(center_lat + float(rng.uniform(-spread_m, spread_m)) / M_PER_DEG,
                 center_lon + float(rng.uniform(-spread_m, spread_m)) / M_PER_DEG)
        for _ in range(n)
    ]


def test_dbscan_two_groups():
    rng = np.random.default_rng(2)
    eps = 100.0
    pts = cluster_points(0.0, 0.0, 10, 20.0, rng) + cluster_points(0.0, 10 * eps / M_PER_DEG, 10, 20.0, rng)
    clusters = dbscan(pts, eps_m=eps, min_pts=3)
    assert len(clusters) == 2
    assert sorted(len(c.members) for c in clusters) == [10, 10]


def test_dbscan_noise_and_singleton():
    pts = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.01), GeoPoint(0.01, 0.0)]
    assert dbscan(pts, eps_m=50.0, min_pts=2) == []
    single = dbscan([GeoPoint(1.0, 2.0)], eps_m=10.0, min_pts=1)
    assert len(single) == 1 and len(single[0].members) == 1


def brute_force_core_components(points, eps_m, min_pts):
    n = len(points)
    dist = [[great_circle_m(points[i], points[j]) for j in range(n)] for i in range(n)]
    core = [sum(1 for j in range(n) if dist[i][j] <= eps_m) >= min_pts for i in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and dist[i][j] <= eps_m:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(n):
        if core[i]:
            comps.setdefault(find(i), set()).add(i)
    return core, list(comps.values()), dist


def test_dbscan_matches_brute_force_reference():
    rng = np.random.default_rng(13)
    for trial in range(3):
        pts = (cluster_points(0.0, 0.0, 30, 60.0, rng)
               + cluster_points(0.005, 0.005, 25, 60.0, rng)
               + cluster_points(-0.004, 0.003, 8, 400.0, rng))
        eps, min_pts = 120.0, 4
        clusters = dbscan(pts, eps, min_pts)
        core, components, dist = brute_force_core_components(pts, eps, min_pts)

        # core points cluster exactly like the reference components
        core_sets = [set(i for i in c.member_indices if core[i]) for c in clusters]
        assert sorted(map(frozenset, core_sets)) == sorted(map(frozenset, components))
        # border members are within eps of a core member of their own cluster
        labeled = set()
        for c in clusters:
            labeled |= set(c.member_indices)
            for i in c.member_indices:
                if not core[i]:
                    assert any(core[j] and dist[i][j] <= eps for j in c.member_indices)
        # noise points are not density-reachable from any core point
        for i in range(len(pts)):
            if i not in labeled:
                assert not core[i]
                assert not any(core[j] and dist[i][j] <= eps for j in range(len(pts)))


def test_dbscan_order_independent_up_to_labels():
    rng = np.random.default_rng(3)
    pts = cluster_points(0.0, 0.0, 15, 40.0, rng) + cluster_points(0.004, 0.0, 12, 40.0, rng)
    first = dbscan(pts, 100.0, 3)
    perm = list(rng.permutation(len(pts)))
    shuffled = [pts[i] for i in perm]
    second = dbscan(shuffled, 100.0, 3)
    canon = lambda clusters, pt_list: sorted(
        sorted((p.lat, p.lon) for p in c.members) for c in clusters
    )
    assert canon(first, pts) == canon(second, shuffled)


@pytest.mark.parametrize("eps_m, min_pts", [
    (0.0, 3), (-1.0, 3), (math.nan, 3), (math.inf, 3), (-math.inf, 3), (100.0, 0),
    ("x", 3), (None, 3), (True, 3), (10.0, "3"), (10.0, 2.5), (10.0, True),
])
def test_dbscan_rejects_bad_parameters(eps_m, min_pts):
    with pytest.raises(ConfigError, match="eps_m must be" if min_pts == 3 else "min_pts must be"):
        dbscan([GeoPoint(0.0, 0.0)], eps_m, min_pts)


def oracle_pairwise_gc_m(points):
    """The full haversine distance matrix, row ``i`` holding every distance from point ``i``."""
    lat = np.radians(np.array([p.lat for p in points]))
    lon = np.radians(np.array([p.lon for p in points]))
    dphi = lat[:, None] - lat[None, :]
    dlam = lon[:, None] - lon[None, :]
    h = np.sin(dphi / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlam / 2.0) ** 2
    return 2.0 * 6_371_000.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def oracle_dbscan(points, eps_m, min_pts):
    """DBSCAN over the full distance matrix by breadth-first search from each unlabeled core point in index order."""
    n = len(points)
    if n == 0:
        return []
    dist = oracle_pairwise_gc_m(points)
    neighbors = [np.nonzero(dist[i] <= eps_m)[0] for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = next_label
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for k in neighbors[j]:
                if labels[k] == -1:
                    labels[k] = next_label
                    if core[k]:
                        queue.append(int(k))
        next_label += 1
    clusters = []
    for label in range(next_label):
        idx = tuple(int(i) for i in np.nonzero(labels == label)[0])
        clusters.append(Cluster(label, tuple(points[i] for i in idx), idx))
    return clusters


def fuzz_points(rng, where):
    """A few clusters of random size and spread plus scattered noise, around a center picked by ``where``."""
    if where == "polar":
        lat0, lon0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(89.5, 89.9)), float(rng.uniform(-180.0, 180.0))
    elif where == "dateline":
        lat0, lon0 = float(rng.uniform(-60.0, 60.0)), float(rng.choice([-180.0, 180.0]))
    else:
        lat0, lon0 = float(rng.uniform(-70.0, 70.0)), float(rng.uniform(-170.0, 170.0))
    spread = float(10 ** rng.uniform(0.5, 3.0))
    offsets = []
    for _ in range(int(rng.integers(1, 5))):
        center = rng.normal(0.0, 4.0 * spread, 2)
        offsets += [center + rng.normal(0.0, spread, 2) for _ in range(int(rng.integers(1, 40)))]
    offsets += [rng.normal(0.0, 10.0 * spread, 2) for _ in range(int(rng.integers(0, 10)))]
    points = []
    for north, east in offsets:
        lat = float(np.clip(lat0 + north / M_PER_DEG, -89.9, 89.9))
        lon = lon0 + east / (M_PER_DEG * math.cos(math.radians(lat)))
        points.append(GeoPoint(lat, float((lon + 180.0) % 360.0 - 180.0)))
    return points, spread


def test_dbscan_matches_matrix_oracle_on_fuzzed_sets():
    rng = np.random.default_rng(2024)
    seen = Counter()
    for trial in range(320):
        where = ("plain", "polar", "dateline")[trial % 3]
        points, spread = fuzz_points(rng, where)
        if trial % 5 == 0:  # exact duplicates
            points += [points[int(k)] for k in rng.integers(len(points), size=int(rng.integers(1, 6)))]
            seen["duplicates"] += 1
        if trial % 7 == 3:  # a few points anywhere: cell coordinates span the whole sphere
            points += [GeoPoint(float(rng.uniform(-89.9, 89.9)), float(rng.uniform(-180.0, 180.0))) for _ in range(3)]
        if trial % 50 == 7:
            points = points[:1]
        n = len(points)
        eps = spread * float(10 ** rng.uniform(-0.7, 0.7))
        if trial % 4 == 1 and n > 1:  # eps equal to one pair's distance: the <= boundary
            dist = oracle_pairwise_gc_m(points)
            i, j = rng.choice(n, size=2, replace=False)
            if dist[i, j] > 0.0:
                eps = float(dist[i, j])
                seen["eps is a pair distance"] += 1
        if trial % 40 == 11:  # beyond half the circumference: every pair is a neighbour, the chord is clamped
            eps = float(rng.uniform(1.0, 3.0) * math.pi * EARTH_RADIUS_M)
            seen["eps beyond half the circumference"] += 1
        min_pts = int(rng.integers(1, 7))
        expected = oracle_dbscan(points, eps, min_pts)
        assert dbscan(points, eps, min_pts) == expected, (trial, where, n, eps, min_pts)

        seen["n=1"] += n == 1
        seen["eps under 10 m, points across the globe"] += trial % 7 == 3 and n > 1 and eps < 10.0
        seen["min_pts=1"] += min_pts == 1
        seen["all noise"] += not expected
        seen["|lat| >= 89.5"] += max(abs(p.lat) for p in points) >= 89.5
        seen["cluster straddles 180"] += any(
            min(p.lon for p in c.members) < -179.0 and max(p.lon for p in c.members) > 179.0 for c in expected)
    assert all(seen[case] > 0 for case in (
        "duplicates", "eps is a pair distance", "eps beyond half the circumference", "n=1", "min_pts=1", "all noise",
        "|lat| >= 89.5", "cluster straddles 180", "eps under 10 m, points across the globe")), seen


def test_generate_data_driven_counts(tmp_path):
    rng = np.random.default_rng(7)
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=5, seed=1))
    eps = 100.0
    big = cluster_points(0.0, 0.0, 729, 30.0, rng)
    small = cluster_points(0.0, 0.05, 63, 30.0, rng)
    events = [(p, float(rng.uniform(0, 3600))) for p in big + small]
    specs = generate_data_driven(graph, events, "n0000", "hs",
                                 eps_m=eps, min_pts=5, n_clusters=2, rng=rng)
    assert len(specs) == 792
    assert len({s.id for s in specs}) == 792
    assert all(0.0 <= s.start_time < 3600.0 for s in specs)
    members = big + small
    for s in specs[:50]:
        assert any(great_circle_m(s.destination, m) <= eps for m in members)

    only_big = generate_data_driven(graph, events, "n0000", "hs",
                                    eps_m=eps, min_pts=5, n_clusters=1,
                                    rng=np.random.default_rng(8))
    assert len(only_big) == 729

    with pytest.raises(ConfigError):
        generate_data_driven(graph, [], "n0000", "hs", eps_m=eps, min_pts=5, rng=rng)


def test_generate_data_driven_noise_only_warns_then_errors():
    rng = np.random.default_rng(4)
    graph = load_graph(build_grid_graph_doc(3, 3, n_resources=2, seed=1))
    scattered = [(GeoPoint(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))), 10.0)
                 for _ in range(20)]
    with pytest.warns(UserWarning):
        with pytest.raises(ConfigError):
            generate_data_driven(graph, scattered, "n0000", "hs",
                                 eps_m=10.0, min_pts=5, rng=rng)


def test_occupation_points():
    graph = load_graph(build_grid_graph_doc(3, 3, n_resources=4, seed=5))
    rid = next(iter(graph.resources))
    trace = trace_from_rows([(rid, 80.0, False), (rid, 10.0, False), (rid, 50.0, True), ("elsewhere", 20.0, False)])
    pts = occupation_points(graph, trace)
    assert len(pts) == 2  # flips to occupied on this graph's resources, in replay order
    assert all(p == graph.resources[rid].position for p, _ in pts)
    assert [t for _, t in pts] == [10.0, 80.0]


def test_zone_rate_overrides():
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=12, seed=2))
    from parksearch.scenario import RateZone

    zone = RateZone(GeoPoint(0.0, 0.0), 200.0, CtmcParams.from_mean_times(10.0, 10.0))
    overrides = zone_rate_overrides(graph, (zone,))
    for rid, r in graph.resources.items():
        inside = great_circle_m(r.position, zone.center) <= 200.0
        assert (rid in overrides) == inside

    # two overlapping zones: a spot inside both takes the first one's rates
    zones = (RateZone(GeoPoint(0.0, 0.0), 250.0, CtmcParams.from_mean_times(10.0, 20.0)),
             RateZone(GeoPoint(0.0, 0.002), 250.0, CtmcParams.from_mean_times(30.0, 40.0)))
    oracle = {}
    for rid, r in graph.resources.items():
        for z in zones:
            if great_circle_m(r.position, z.center) <= z.radius_m:
                oracle[rid] = z.params
                break
    overrides = zone_rate_overrides(graph, zones)
    assert overrides == oracle and list(overrides) == list(oracle)
    inside = [[great_circle_m(r.position, z.center) <= z.radius_m for z in zones] for r in graph.resources.values()]
    assert [True, True] in inside and [False, False] in inside


def test_run_scenario_and_echo(tmp_path):
    graph_path, _ = write_demo_world(tmp_path)
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(base_config(graph_path)))
    out = tmp_path / "results"
    records = run_scenario(cfg_path, out)
    assert len(records) == 4
    assert (out / "demo.results.csv").exists()
    echo = json.loads((out / "demo.config.json").read_text())
    assert echo["planner"]["kind"] == "rpl"
    assert echo["ctmc"]["lambda_inv_s"] == pytest.approx(300.0)
    file_records = read_results(out / "demo.results.csv")
    assert [r.agent_id for r in file_records] == [r.agent_id for r in sorted(records, key=lambda r: r.agent_id)]


def test_data_driven_scenario_reads_its_trace_once(monkeypatch):
    calls = []
    load = scenario_module.load_trace
    monkeypatch.setattr(scenario_module, "load_trace", lambda path: calls.append(path) or load(path))
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "data_driven_demo.json")
    assert config.destinations["trace"] == str(config.trace_path)
    assert run_scenario(config)
    assert calls == [config.trace_path]


def test_run_batch_and_summary_reductions(tmp_path):
    graph_path, _ = write_demo_world(tmp_path, n_resources=12)
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for kind in ("rpl", "rpl_r"):
        for seed in (1, 2):
            doc = base_config(graph_path, kind=kind, seed=seed)
            doc["graph"] = str(graph_path)
            (cfg_dir / f"{kind}-s{seed}.json").write_text(json.dumps(doc))
    out = tmp_path / "batch-out"
    summary = run_batch(sorted(cfg_dir.glob("*.json")), out, parallel=1)
    assert summary["failed"] == {}
    assert summary["runs"] == 4
    assert set(summary["per_planner"]) == {"rpl", "rpl_r"}

    # the reduction statistic recomputes exactly from the written results files
    records = []
    for path in out.glob("*.results.csv"):
        records.extend(read_results(path))
    total = {"rpl": 0.0, "rpl_r": 0.0}
    for r in records:
        total[r.planner] += r.parking_s
    expected = 100.0 * (total["rpl"] - total["rpl_r"]) / total["rpl"]
    assert summary["reduction_pct_vs_base"]["rpl_r"] == pytest.approx(expected, rel=1e-12)

    again = summarize_results(out)
    assert again["per_planner"] == summary["per_planner"]


def test_batch_isolates_failures(tmp_path):
    graph_path, _ = write_demo_world(tmp_path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({**base_config(graph_path), "measure_computation": False}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": "nope.json"}))
    out = tmp_path / "out"
    summary = run_batch([good, bad], out, parallel=1)
    assert list(summary["failed"]) == [str(bad)]
    assert (out / "good.results.csv").exists()
    # two worker processes run the same loop: the same summary and results file
    assert run_batch([good, bad], tmp_path / "pool", parallel=2) == summary
    assert (tmp_path / "pool" / "good.results.csv").read_bytes() == (out / "good.results.csv").read_bytes()


def test_batch_workers_are_capped_at_the_number_of_configs(tmp_path, monkeypatch):
    """A pool forks all its workers at the first submit, so it gets one per config at most, and none for one."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(scenario_module, "ProcessPoolExecutor", InProcessPool)
    graph_path, _ = write_demo_world(tmp_path)
    configs = []
    for seed in (1, 2, 3):
        configs.append(tmp_path / f"s{seed}.json")
        configs[-1].write_text(json.dumps({**base_config(graph_path, seed=seed), "measure_computation": False}))
    summary = run_batch(configs, tmp_path / "three", parallel=5000)
    assert pools == [3] and summary["failed"] == {} and summary["runs"] == 3
    assert run_batch(configs[:1], tmp_path / "one", parallel=8)["runs"] == 1
    assert pools == [3]  # one config runs in this process, with no pool


def test_summary_reduction_hand_example(tmp_path):
    # base total parking 1000 s, variant 250 s: reduction 75%
    out = tmp_path
    write_results(out / "base.results.csv", [
        MetricsRecord("a0", "hs", 1200.0, 500.0, 700.0, 0, 0.0, "r1", "parked"),
        MetricsRecord("a1", "hs", 800.0, 500.0, 300.0, 0, 0.0, "r2", "parked"),
    ])
    write_results(out / "variant.results.csv", [
        MetricsRecord("a0", "hs_a", 650.0, 500.0, 150.0, 0, 0.0, "r1", "parked"),
        MetricsRecord("a1", "hs_a", 600.0, 500.0, 100.0, 0, 0.0, "r2", "parked"),
    ])
    summary = summarize_results(out)
    assert summary["reduction_pct_vs_base"]["hs_a"] == pytest.approx(75.0)


def test_scenario_generation_is_pure(tmp_path):
    graph_path, doc = write_demo_world(tmp_path)
    graph = load_graph(doc)
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    pts = cluster_points(0.0, 0.0, 30, 20.0, np.random.default_rng(1))
    events = [(p, 100.0) for p in pts]
    a = generate_data_driven(graph, events, "n0000", "rpl", eps_m=100.0, min_pts=3, rng=rng1)
    b = generate_data_driven(graph, events, "n0000", "rpl", eps_m=100.0, min_pts=3, rng=rng2)
    assert a == b


# SHA-256 of json.dumps of each document, captured before the east and south streets shared one rule
GRID_DOC_DIGESTS = {
    "1x6": ({"rows": 1, "cols": 6, "n_resources": 10, "seed": 3},
            "d831adfa9b816793f0afa5a174b3146c007bb4866292f1f6664be093ee3bd125"),
    "6x1": ({"rows": 6, "cols": 1, "n_resources": 10, "seed": 3},
            "3be165e770504c80cc8e4b551187cb459fac39d6b76edaac4d49ddf259c64918"),
    "1x1 without spots": ({"rows": 1, "cols": 1, "n_resources": 0},
                          "076542b54b249c2b12fbaba7993f19763e21aac25ddcded974f59f1695895f83"),
    "7x5 one-way": ({"rows": 7, "cols": 5, "n_resources": 40, "seed": 11, "one_way": True},
                    "f19065350fa12bf2e209e2225c595662580c2ca0525c56f1a868f8fc149c8ff1"),
    "6x8 one-way on 7 streets": ({"rows": 6, "cols": 8, "n_resources": 30, "seed": 2, "one_way": True,
                                  "resource_streets": 7},
                                 "e426a4103d9adfc6e6ea70ac702059985c82ba7f3f6f66322c4e4a46e415b7a9"),
}


@pytest.mark.parametrize("shape", GRID_DOC_DIGESTS)
def test_grid_documents_are_pinned(shape):
    """Edge order (per node, row-major: east, then south) decides which streets the seeded draws pick."""
    kwargs, digest = GRID_DOC_DIGESTS[shape]
    assert hashlib.sha256(json.dumps(build_grid_graph_doc(**kwargs)).encode()).hexdigest() == digest


def test_grid_builder_connectivity():
    for one_way in (False, True):
        doc = build_grid_graph_doc(6, 6, n_resources=10, seed=3, one_way=one_way)
        graph = load_graph(doc)
        assert np.isfinite(dense_travel_times(graph)).all(), f"one_way={one_way}"
    assert len(load_graph(build_grid_graph_doc(10, 10, n_resources=150, seed=42)).resources) == 150


def test_grid_ids_stay_unique_beyond_100_rows_and_columns():
    doc = build_grid_graph_doc(102, 101, n_resources=3)
    ids = [n["id"] for n in doc["nodes"]]
    assert ids[:2] == ["n000000", "n000001"] and ids[101] == "n001000" and ids[-1] == "n101100"
    assert list(load_graph(doc).nodes) == ids  # unique, and id order is row-major
    small = [n["id"] for n in build_grid_graph_doc(10, 10, n_resources=0)["nodes"]]
    assert small == [f"n{r:02d}{c:02d}" for r in range(10) for c in range(10)]


@pytest.mark.parametrize("kwargs, message", [
    ({"rows": 0}, "rows must be a positive integer, got 0"),
    ({"cols": -2}, "cols must be a positive integer, got -2"),
    ({"rows": 2.5}, "rows must be a positive integer, got 2.5"),
    ({"n_resources": -5}, "n_resources must be a non-negative integer, got -5"),
    ({"resource_streets": 0}, "resource_streets must be a positive integer, got 0"),
    ({"rows": 1, "cols": 1}, "n_resources must be 0 on a 1x1 grid, which has no streets, got 5"),
])
def test_grid_builder_rejects_bad_sizes(kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_grid_graph_doc(**{"rows": 3, "cols": 3, "n_resources": 5, **kwargs})
    assert build_grid_graph_doc(1, 1, n_resources=0)["edges"] == []
