import json

import numpy as np
import pytest

from parksearch.errors import GraphFormatError, GraphValidationError
from parksearch.graph import all_pairs_travel_times, dump_graph, load_graph, save_graph
from parksearch.planners import PlannerContext

from conftest import bellman_ford_times, random_graph_doc, triangle_doc


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
    with pytest.raises(GraphValidationError, match=f"{name}: {field} must be finite and positive"):
        load_graph(doc)


def test_default_round_trip_applied():
    g = load_graph(triangle_doc(), default_round_trip_s=77.0)
    assert g.resources["r1"].round_trip_s == 77.0


def test_apsp_triangle(triangle_graph):
    m = PlannerContext(triangle_graph, all_pairs_travel_times(triangle_graph))
    assert m.drive_time("u", "u") == 0.0
    assert m.drive_time("u", "v") == 10.0
    assert m.drive_time("u", "w") == 30.0  # u -> v -> w, only path
    assert m.drive_time("w", "v") == 25.0


def test_apsp_unreachable_is_inf():
    doc = {
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length_m": 10.0, "drive_time_s": 5.0}],
        "resources": [],
    }
    g = load_graph(doc)
    m = PlannerContext(g, all_pairs_travel_times(g))
    assert m.drive_time("a", "b") == 5.0
    assert m.drive_time("b", "a") == np.inf


def test_apsp_matches_bellman_ford_exactly():
    rng = np.random.default_rng(11)
    for trial in range(4):
        g = load_graph(random_graph_doc(rng, n_nodes=30, n_resources=0))
        m = PlannerContext(g, all_pairs_travel_times(g))
        for source in list(g.nodes)[::7]:
            oracle = bellman_ford_times(g, source)
            for target in g.nodes:
                assert m.drive_time(source, target) == oracle[target]


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    g = load_graph(random_graph_doc(rng, n_nodes=20, n_resources=0))
    vals = all_pairs_travel_times(g)
    n = vals.shape[0]
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if np.isfinite(vals[u, v]) and np.isfinite(vals[v, w]):
                    assert vals[u, w] <= vals[u, v] + vals[v, w] + 1e-9


def test_isochrone(triangle_graph):
    m = PlannerContext(triangle_graph, all_pairs_travel_times(triangle_graph))
    assert m.isochrone("u", 0.0) == {"u"}
    assert m.isochrone("u", 1000.0) == {"u", "v", "w"}
    # time-to-w: u needs 30, v needs 20, w needs 0
    assert m.isochrone("w", 20.0) == {"v", "w"}


def test_reachable_resources_ordering():
    doc = triangle_doc()
    doc["resources"] = [
        {"id": "rb", "edge": "e-uv", "lat": 0.0, "lon": 0.0, "offset_s": 5.0},
        {"id": "ra", "edge": "e-uv", "lat": 0.0, "lon": 0.0, "offset_s": 2.0},
        {"id": "rc", "edge": "e-vw", "lat": 0.0, "lon": 0.0, "offset_s": 1.0},
    ]
    g = load_graph(doc)
    assert list(g.resources_by_edge["e-uv"]) == ["ra", "rb"]
    assert list(g.resources_by_edge["e-wu"]) == []
    assert "missing" not in g.resources_by_edge


def test_roundtrip_serialization(tmp_path):
    rng = np.random.default_rng(2)
    g = load_graph(random_graph_doc(rng, n_nodes=12, n_resources=4))
    path = tmp_path / "g.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.nodes == g.nodes
    assert g2.edges == g.edges
    assert g2.resources == g.resources
    assert dump_graph(g2) == dump_graph(g)
