import numpy as np
import pytest

from parksearch.availability import CtmcParams
from parksearch.engine import OccupationTrace
from parksearch.graph import all_pairs_travel_times, load_graph
from parksearch.planners import PlannerContext


def triangle_doc():
    """Directed 3-cycle u -> v -> w -> u with drive times 10, 20, 15 and one resource."""
    return {
        "nodes": [
            {"id": "u", "lat": 0.0, "lon": 0.0},
            {"id": "v", "lat": 0.0, "lon": 0.001},
            {"id": "w", "lat": 0.001, "lon": 0.0},
        ],
        "edges": [
            {"id": "e-uv", "from": "u", "to": "v", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-vw", "from": "v", "to": "w", "length_m": 100.0, "drive_time_s": 20.0},
            {"id": "e-wu", "from": "w", "to": "u", "length_m": 100.0, "drive_time_s": 15.0},
        ],
        "resources": [
            {"id": "r1", "edge": "e-uv", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0},
        ],
    }


def random_graph_doc(rng, n_nodes, edge_prob=0.25, n_resources=5, integer_weights=True):
    nodes = [
        {"id": f"n{i:02d}", "lat": float(rng.uniform(-0.02, 0.02)), "lon": float(rng.uniform(-0.02, 0.02))}
        for i in range(n_nodes)
    ]
    edges = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i != j and rng.random() < edge_prob:
                w = float(rng.integers(1, 100)) if integer_weights else float(rng.uniform(1, 100))
                edges.append({
                    "id": f"e{i:02d}-{j:02d}",
                    "from": f"n{i:02d}",
                    "to": f"n{j:02d}",
                    "length_m": 50.0,
                    "drive_time_s": w,
                })
    resources = []
    for k in range(min(n_resources, len(edges))):
        e = edges[int(rng.integers(len(edges)))]
        resources.append({
            "id": f"r{k:02d}",
            "edge": e["id"],
            "lat": 0.0,
            "lon": 0.0,
            "offset_s": float(rng.uniform(0, e["drive_time_s"])),
        })
    return {"nodes": nodes, "edges": edges, "resources": resources}


@pytest.fixture
def triangle_graph():
    return load_graph(triangle_doc())


@pytest.fixture
def default_params():
    return CtmcParams.from_mean_times(120.0, 2091.0)


def make_context(doc):
    graph = load_graph(doc)
    return graph, PlannerContext(graph, all_pairs_travel_times(graph))


def bellman_ford_times(graph, source):
    """Independent single-source shortest-path oracle (edge relaxation to fixpoint)."""
    dist = {nid: np.inf for nid in graph.nodes}
    dist[source] = 0.0
    edges = [(e.from_node, e.to_node, e.drive_time_s) for e in graph.edges.values()]
    for _ in range(len(graph.nodes)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def trace_from_rows(rows, start=None):
    """An ``OccupationTrace`` of ``(id, time, available)`` flip rows, in any order, and
    ``{id: available}`` start states; other resources start available."""
    start = start or {}
    resources = sorted({rid for rid, _, _ in rows} | set(start))
    slot = {rid: i for i, rid in enumerate(resources)}
    return OccupationTrace(resources, [start.get(rid, True) for rid in resources], [t for _, t, _ in rows],
                           [slot[rid] for rid, _, _ in rows], [up for _, _, up in rows])


def trace_rows(trace):
    """The ``(id, time, available)`` rows of ``trace`` in replay order."""
    ids = trace.resources.tolist()
    return [(ids[s], t, up) for s, t, up in zip(trace.spot.tolist(), trace.time.tolist(), trace.up.tolist())]
