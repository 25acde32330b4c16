import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from parksearch.availability import CtmcParams
from parksearch.engine import AgentSpec, run_simulation
from parksearch.errors import GraphFormatError, GraphValidationError, ParkSearchError
from parksearch.geo import GeoPoint
from parksearch.graph import all_pairs_travel_times, load_graph
from parksearch.planners import PlannerContext
from parksearch.scenario import build_grid_graph_doc, load_config

from conftest import bellman_ford_times, random_graph_doc, sink_grid_doc, triangle_doc
from drive_time_oracle import dense_travel_times

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def test_triangle_counts(triangle_graph):
    assert len(triangle_graph.nodes) == 3
    assert len(triangle_graph.edges) == 3
    assert len(triangle_graph.resources) == 1


def test_drive_time_derived_from_speed_limit():
    doc = triangle_doc()
    doc["edges"][0] = {"id": "e-uv", "from": "u", "to": "v", "length_m": 100.0, "speed_limit_kmh": 40.0}
    g = load_graph(doc)
    # 40 km/h = 11.111 m/s, calibrated speed 0.25 * 11.111, so 100 m takes 36 s
    assert g.edges["e-uv"].drive_time_s == pytest.approx(36.0, abs=1e-9)


def test_dangling_edge_endpoint_rejected():
    doc = triangle_doc()
    doc["edges"][0]["from"] = "X"
    with pytest.raises(GraphValidationError):
        load_graph(doc)


@pytest.mark.parametrize("section,field", [
    ("nodes", "elevation"),
    ("edges", "lanes"),
    ("resources", "price"),
])
def test_unknown_fields_rejected(section, field):
    doc = triangle_doc()
    doc[section][0][field] = 1
    with pytest.raises(GraphFormatError):
        load_graph(doc)


def test_unknown_top_level_field_rejected():
    doc = triangle_doc()
    doc["meta"] = {}
    with pytest.raises(GraphFormatError):
        load_graph(doc)


@pytest.mark.parametrize("value", [5, True, None, {}])
@pytest.mark.parametrize("section", ["nodes", "edges", "resources"])
def test_graph_sections_must_be_lists(section, value):
    doc = triangle_doc()
    doc[section] = value
    with pytest.raises(GraphFormatError, match=rf"^{section} must be a list"):
        load_graph(doc)


def test_graph_document_mutations_raise_named_errors_or_load():
    """Each whole section, and each field of the first node, edge and resource of the demo grid, set to
    each bad value: the document loads or raises a graph error, never a raw exception."""
    doc = json.loads((ROOT / "data" / "demo_grid.json").read_text())
    outcomes = Counter()
    for section in ("nodes", "edges", "resources"):
        first, *rest = doc[section]
        for key in (None, *first):
            for value in (None, [], {}, "x", -1, 0, math.inf, math.nan, True, 10**30, "n9999", [1]):
                entries = value if key is None else [{**first, key: value}, *rest]
                try:
                    load_graph({**doc, section: entries})
                    outcomes["loaded"] += 1
                except (GraphFormatError, GraphValidationError) as exc:
                    outcomes[type(exc).__name__] += 1
                except ParkSearchError as exc:
                    pytest.fail(f"{section} {key} = {value!r}: {type(exc).__name__}, not a graph error")
    # a bad section, key or id is a format error, a bad number, position or reference a validation error;
    # what loads is a new unreferenced id, another valid position, a zero offset or a huge number
    assert outcomes == {"GraphFormatError": 75, "GraphValidationError": 106, "loaded": 23}


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph(path)


def test_load_graph_reads_a_path_that_starts_with_a_brace(tmp_path, monkeypatch):
    (tmp_path / "{city}.json").write_text(json.dumps(triangle_doc()))
    monkeypatch.chdir(tmp_path)
    assert len(load_graph("{city}.json").nodes) == 3
    assert len(load_graph(tmp_path / "{city}.json").nodes) == 3


def test_validation_errors():
    doc = triangle_doc()
    doc["edges"][0]["length_m"] = -1.0
    with pytest.raises(GraphValidationError):
        load_graph(doc)

    doc = triangle_doc()
    doc["resources"][0]["offset_s"] = 99.0  # beyond the 10 s edge
    with pytest.raises(GraphValidationError):
        load_graph(doc)

    doc = triangle_doc()
    doc["resources"][0]["edge"] = "nope"
    with pytest.raises(GraphValidationError):
        load_graph(doc)

    doc = triangle_doc()
    doc["nodes"].append({"id": "u", "lat": 0.0, "lon": 0.0})
    with pytest.raises(GraphValidationError):
        load_graph(doc)

    doc = triangle_doc()
    del doc["edges"][0]["drive_time_s"]  # neither drive time nor speed limit
    with pytest.raises(GraphValidationError):
        load_graph(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
@pytest.mark.parametrize("section,field,name", [
    ("edges", "length_m", "edge 'e-vw'"),
    ("edges", "drive_time_s", "edge 'e-vw'"),
    ("edges", "speed_limit_kmh", "edge 'e-vw'"),
    ("resources", "round_trip_s", "resource 'r1'"),
])
def test_graph_numbers_must_be_finite_and_positive(section, field, name, value):
    doc = triangle_doc()
    entry = doc[section][1 if section == "edges" else 0]
    if field == "speed_limit_kmh":
        del entry["drive_time_s"]  # the drive time is derived from the limit
    entry[field] = value
    with pytest.raises(GraphValidationError, match=f"{name}: {field} must be a positive number"):
        load_graph(doc)


def test_default_round_trip_applied():
    g = load_graph(triangle_doc(), default_round_trip_s=77.0)
    assert g.resources["r1"].round_trip_s == 77.0


def test_apsp_triangle(triangle_graph):
    m = PlannerContext(triangle_graph, all_pairs_travel_times(triangle_graph))
    u, v, w = (m.node_index[n] for n in "uvw")
    assert m.drive_time(u, u) == 0.0
    assert m.drive_time(u, v) == 10.0
    assert m.drive_time(u, w) == 30.0  # u -> v -> w, only path
    assert m.drive_time(w, v) == 25.0


def test_apsp_unreachable_is_inf():
    doc = {
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length_m": 10.0, "drive_time_s": 5.0}],
        "resources": [],
    }
    g = load_graph(doc)
    m = PlannerContext(g, all_pairs_travel_times(g))
    a, b = m.node_index["a"], m.node_index["b"]
    assert m.drive_time(a, b) == 5.0
    assert m.drive_time(b, a) == np.inf


def test_apsp_matches_bellman_ford_exactly():
    rng = np.random.default_rng(11)
    for trial in range(4):
        g = load_graph(random_graph_doc(rng, n_nodes=30, n_resources=0))
        m = PlannerContext(g, all_pairs_travel_times(g))
        for source in list(g.nodes)[::7]:
            oracle = bellman_ford_times(g, source)
            for target in g.nodes:
                assert m.drive_time(m.node_index[source], m.node_index[target]) == oracle[target]


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    g = load_graph(random_graph_doc(rng, n_nodes=20, n_resources=0))
    times = all_pairs_travel_times(g)
    n = len(g.nodes)
    vals = np.array([times[i] for i in range(n)])
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if np.isfinite(vals[u, v]) and np.isfinite(vals[v, w]):
                    assert vals[u, w] <= vals[u, v] + vals[v, w] + 1e-9


def test_isochrone(triangle_graph):
    m = PlannerContext(triangle_graph, all_pairs_travel_times(triangle_graph))

    def isochrone(around, limit_s):
        return {m.node_ids[i] for i in m.isochrone(m.node_index[around], limit_s)}
    assert isochrone("u", 0.0) == {"u"}
    assert isochrone("u", 1000.0) == {"u", "v", "w"}
    # time-to-w: u needs 30, v needs 20, w needs 0
    assert isochrone("w", 20.0) == {"v", "w"}


def drive_time_worlds(rng):
    """Random graphs with integer and with non-integer drive times, the same with a sink that no street
    leaves (so rows and columns hold inf), and one-way grids of non-integer streets."""
    for integer in (True, False):
        for _ in range(4):
            yield random_graph_doc(rng, n_nodes=int(rng.integers(8, 25)), edge_prob=0.2, n_resources=0,
                                   integer_weights=integer)
        doc = random_graph_doc(rng, n_nodes=15, edge_prob=0.25, n_resources=0, integer_weights=integer)
        doc["nodes"].append({"id": "sink", "lat": 0.0, "lon": 0.0})
        for k, nid in enumerate(("n00", "n07")):
            doc["edges"].append({"id": f"e-sink{k}", "from": nid, "to": "sink", "length_m": 50.0,
                                 "drive_time_s": float(rng.uniform(1, 100))})
        yield doc
    for seed in (1, 2):
        yield build_grid_graph_doc(5, 6, drive_time_s=float(rng.uniform(10, 40)), n_resources=0, seed=seed,
                                   one_way=True)


def test_drive_time_rows_equal_the_dense_oracle_bit_for_bit():
    rng = np.random.default_rng(2201)
    unreachable = 0
    for doc in drive_time_worlds(rng):
        g = load_graph(doc)
        dense = dense_travel_times(g)
        times = all_pairs_travel_times(g)
        n = len(g.nodes)
        assert times.shape == (n, n) and len(times) == 0
        for k, i in enumerate(rng.permutation(n).tolist()):
            row = times[i]
            assert row.tobytes() == dense[i].tobytes(), i
            assert times[i] is row and len(times) == k + 1  # kept, searched once
            assert not row.flags.writeable
        unreachable += int(np.isinf(dense).sum())
    assert unreachable > 100


def test_isochrone_equals_the_dense_column_at_exact_path_lengths():
    """Limits at a node's exact drive time and one step either side decide it as its own row does, though
    the reverse search that picks candidates may add the same streets to a slightly different sum."""
    rng = np.random.default_rng(2202)
    checked = boundary = 0
    for doc in drive_time_worlds(rng):
        g = load_graph(doc)
        dense = dense_travel_times(g)
        n = len(g.nodes)
        ctx = PlannerContext(g, all_pairs_travel_times(g))
        for around in rng.choice(n, size=min(n, 4), replace=False).tolist():
            column = dense[:, around]
            lengths = np.unique(column[np.isfinite(column)])
            for length in rng.choice(lengths, size=min(len(lengths), 6), replace=False).tolist():
                for limit in (np.nextafter(length, -np.inf), length, np.nextafter(length, np.inf)):
                    want = np.flatnonzero(column <= limit).tolist()
                    assert sorted(ctx.isochrone(around, limit)) == want, (around, limit)
                    checked += 1
                boundary += int(np.count_nonzero(column == length))
        assert sorted(ctx.isochrone(0, np.inf)) == list(range(n))  # unreachable nodes too, as inf <= inf
        assert sorted(ctx.isochrone(0, -1.0)) == []
    assert checked > 300 and boundary > 100


def test_drive_times_are_computed_on_demand():
    """Building the store and a context on a 3,600-node one-way grid allocates a small share of the
    dense matrix, and one rpl trip searches fewer rows than there are nodes."""
    g = load_graph(build_grid_graph_doc(60, 60, n_resources=600, seed=6, one_way=True, resource_streets=300))
    n = len(g.nodes)
    tracemalloc.start()
    try:
        times = all_pairs_travel_times(g)
        ctx = PlannerContext(g, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n * 8, peak
    dest = GeoPoint(float(ctx.node_lat[n // 2 + 30]), float(ctx.node_lon[n // 2 + 30]))
    (record,) = run_simulation(g, [AgentSpec("a0", "n0000", dest, 0.0, "rpl")],
                               CtmcParams.from_mean_times(300.0, 600.0), seed=1, ctx=ctx, measure_computation=False)
    assert record.status == "parked"
    assert 0 < len(times) < n


def test_nodes_outside_the_largest_strong_component_are_counted():
    assert all_pairs_travel_times(load_graph(sink_grid_doc())).outside_largest_component() == 1
    for path in sorted(CONFIGS.glob("*.json")):
        config = load_config(path)
        g = load_graph(config.graph_path, speed_factor=config.speed_factor)
        assert all_pairs_travel_times(g).outside_largest_component() == 0, path.name


def test_reachable_resources_ordering():
    doc = triangle_doc()
    doc["resources"] = [
        {"id": "rb", "edge": "e-uv", "lat": 0.0, "lon": 0.0, "offset_s": 5.0},
        {"id": "ra", "edge": "e-uv", "lat": 0.0, "lon": 0.0, "offset_s": 2.0},
        {"id": "rc", "edge": "e-vw", "lat": 0.0, "lon": 0.0, "offset_s": 1.0},
    ]
    g = load_graph(doc)
    ctx = PlannerContext(g, all_pairs_travel_times(g))

    def street_spots(eid):
        return [ctx.res_ids[i] for i in ctx.street_spots[ctx.edge_ids.index(eid)]]
    assert street_spots("e-uv") == ["ra", "rb"]
    assert street_spots("e-wu") == []
    assert len(ctx.street_spots) == len(g.edges)
