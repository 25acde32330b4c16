"""Seeded fuzz loops: every planner kind on small awkward worlds, each run checked end to end.

The worlds are random graphs from ``conftest.random_graph_doc`` with a sink node, without spots or
without streets, and a small one-way grid. Every run must return one record per agent whose status is
parked, timed out or stranded and whose numbers are finite, and must pass ``check_end_of_run``.
"""

import math

import numpy as np
import pytest

from parksearch.availability import CtmcParams
from parksearch.engine import AgentSpec
from parksearch.geo import GeoPoint
from parksearch.graph import load_graph
from parksearch.planners import PLANNER_KINDS, PlannerSettings
from parksearch.scenario import build_grid_graph_doc

from conftest import random_graph_doc
from run_invariants import capture_fleets, check_end_of_run, run_logged

SEEDS = range(8)
AGENTS_PER_KIND = 2
SETTINGS = PlannerSettings(determinizations=8, adaption_samples=8)


def with_sink(rng):
    """A random graph plus a node that one street enters and none leaves, with a spot on that street."""
    doc = random_graph_doc(rng, 8, edge_prob=0.3, n_resources=6)
    doc["nodes"].append({"id": "sink", "lat": 0.021, "lon": 0.021})
    doc["edges"].append({"id": "e-sink", "from": "n00", "to": "sink", "length_m": 50.0, "drive_time_s": 20.0})
    doc["resources"].append({"id": "r-sink", "edge": "e-sink", "lat": 0.0205, "lon": 0.0205, "offset_s": 10.0})
    return doc


def without_spots(rng):
    return random_graph_doc(rng, 8, edge_prob=0.3, n_resources=0)


def without_streets(rng):
    return random_graph_doc(rng, 5, edge_prob=0.0)


def one_way_grid(rng):
    return build_grid_graph_doc(4, 4, n_resources=8, seed=int(rng.integers(2**31)), one_way=True)


@pytest.mark.parametrize("world", [with_sink, without_spots, without_streets, one_way_grid])
def test_every_kind_finishes_awkward_worlds(world, monkeypatch):
    fleets = capture_fleets(monkeypatch)
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 0xF022])
        graph = load_graph(world(rng))
        node_ids = list(graph.nodes)
        lat = [v.position.lat for v in graph.nodes.values()]
        lon = [v.position.lon for v in graph.nodes.values()]
        agents = [
            AgentSpec(f"a{i:02d}", node_ids[int(rng.integers(len(node_ids)))],
                      GeoPoint(float(rng.uniform(min(lat), max(lat))), float(rng.uniform(min(lon), max(lon)))),
                      float(rng.uniform(0.0, 300.0)), kind)
            for i, kind in enumerate(k for k in PLANNER_KINDS for _ in range(AGENTS_PER_KIND))
        ]
        records, log = run_logged(graph, agents, CtmcParams.from_mean_times(200.0, 600.0), seed=seed,
                                  horizon_s=1800.0, settings=SETTINGS, measure_computation=False)
        assert [r.agent_id for r in records] == [a.id for a in agents]
        for r in records:
            assert r.status in ("parked", "timed_out", "stranded"), r
            numbers = (r.total_trip_s, r.taxi_s, r.parking_s, r.unsuccessful_claims, r.computation_s)
            assert all(math.isfinite(x) for x in numbers), r
        check_end_of_run(records, log, fleets[-1])
