import math

import numpy as np
import pytest

from parksearch.availability import AdaptionOverlay, CtmcParams, ResourceState
from parksearch.errors import AdaptionError, DegenerateTargetError
from parksearch.fleet import (
    Reservation,
    ReservationTable,
    WalkPath,
    _edge_jump_weight,
    adapt_probabilities,
    create_adaptions,
    reverse_adaptions,
)
from parksearch.graph import isochrone_nodes
from parksearch.planners import PlanningView

from conftest import make_context
from ctmc_oracle import ResourceBelief, availability_probability

FROZEN = CtmcParams(1e-9, 1e-9)


def effective_availability(table, resource, querying_agent, query_arrival, currently_available):
    """Availability as seen by a fleet agent expecting to arrive at ``query_arrival``."""
    return currently_available and not table.blocked(querying_agent, [query_arrival], {resource: 0})[0]


def reservation_blocks(res, querying_agent, query_arrival):
    """Scalar oracle: whether one reservation makes its resource look occupied to a query."""
    if res.agent == querying_agent:
        return False
    if res.t_arrival < query_arrival:
        return True
    return res.t_arrival == query_arrival and (querying_agent is None or res.agent < querying_agent)


def test_blocked_matches_scalar_oracle():
    rng = np.random.default_rng(515)
    agents = [f"a{i}" for i in range(8)]
    resources = [f"r{i}" for i in range(6)]
    seen = {"tie": 0, "own": 0, "anonymous": 0, "cancelled": 0, "outside": 0}
    for _ in range(300):
        table = ReservationTable()
        held: dict[str, Reservation] = {}  # the test's own model of the active reservations
        for _ in range(int(rng.integers(1, 12))):
            agent = str(rng.choice(agents))
            if rng.random() < 0.25:
                table.cancel(agent)
                seen["cancelled"] += held.pop(agent, None) is not None
            else:
                res = Reservation(str(rng.choice(resources)), agent, float(rng.integers(0, 4)))
                table.place(res.agent, res.resource, res.t_arrival)
                held[agent] = res
        in_index = [str(r) for r in rng.permutation(resources)[: int(rng.integers(1, len(resources) + 1))]]
        index = {rid: k for k, rid in enumerate(in_index)}
        seen["outside"] += any(res.resource not in index for res in held.values())
        arrivals = rng.integers(0, 4, size=len(in_index)).astype(float)
        for agent in [None, *agents]:
            seen["anonymous"] += agent is None
            seen["own"] += agent in held and held[agent].resource in index
            expected = np.array([any(reservation_blocks(res, agent, arrivals[k])
                                     for res in held.values() if res.resource == rid)
                                 for rid, k in index.items()], dtype=bool)
            seen["tie"] += sum(res.resource in index and res.t_arrival == arrivals[index[res.resource]]
                               for res in held.values())
            assert np.array_equal(table.blocked(agent, arrivals, index), expected)
            for rid, k in index.items():
                assert table.blocked(agent, [arrivals[k]], {rid: 0})[0] == expected[k]
    assert min(seen.values()) > 0, seen


def test_reservation_table_basics():
    table = ReservationTable()
    table.place("a1", "r1", 100.0)
    assert table.for_agent("a1") == Reservation("r1", "a1", 100.0)
    assert len(table) == 1

    table.place("a1", "r2", 150.0)  # re-targeting replaces the old entry
    assert table.for_agent("a1").resource == "r2"
    assert table.for_resource("r1") == ()
    assert len(table) == 1

    table.place("a2", "r2", 200.0)  # several agents may reserve one resource
    assert {res.agent for res in table.for_resource("r2")} == {"a1", "a2"}

    table.cancel("a1")
    assert table.for_agent("a1") is None
    table.cancel("a1")  # idempotent


def test_effective_availability_semantics():
    table = ReservationTable()
    assert effective_availability(table, "r1", "me", 150.0, currently_available=False) is False
    assert effective_availability(table, "r1", "me", 150.0, currently_available=True) is True

    table.place("other", "r1", 100.0)
    assert effective_availability(table, "r1", "me", 150.0, True) is False  # they arrive first
    table.place("other", "r1", 200.0)
    assert effective_availability(table, "r1", "me", 150.0, True) is True  # I arrive first

    # own reservation never blocks
    table.place("me", "r1", 100.0)
    assert effective_availability(table, "r1", "me", 150.0, True) is True


def test_equal_arrival_tie_breaks_by_agent_id():
    table = ReservationTable()
    table.place("a1", "r1", 100.0)
    assert effective_availability(table, "r1", "a2", 100.0, True) is False  # a1 keeps the claim
    table.place("a3", "r1", 100.0)
    assert effective_availability(table, "r1", "a2", 100.0, True) is False  # a1 still blocks
    table.cancel("a1")
    assert effective_availability(table, "r1", "a2", 100.0, True) is True  # a3 > a2 loses ties


def test_effective_availability_monotone_in_reservations():
    rng = np.random.default_rng(6)
    for _ in range(200):
        table = ReservationTable()
        probes = [("rX", f"q{i}", float(rng.uniform(0, 100))) for i in range(5)]
        before = [effective_availability(table, r, q, t, True) for r, q, t in probes]
        table.place("zzz", "rX", float(rng.uniform(0, 100)))
        after = [effective_availability(table, r, q, t, True) for r, q, t in probes]
        for b, a in zip(before, after):
            assert not (b is False and a is True)


def test_per_agent_uniqueness_random_ops():
    rng = np.random.default_rng(9)
    table = ReservationTable()
    agents = [f"a{i}" for i in range(6)]
    resources = [f"r{i}" for i in range(4)]
    for _ in range(2000):
        agent = str(rng.choice(agents))
        if rng.random() < 0.3:
            table.cancel(agent)
        else:
            table.place(agent, str(rng.choice(resources)), float(rng.uniform(0, 1000)))
        held = [res for a in agents for res in ([table.for_agent(a)] if table.for_agent(a) else [])]
        assert len(held) == len(table)
        by_res = [res for r in resources for res in table.for_resource(r)]
        assert sorted(id(x) for x in by_res) == sorted(id(x) for x in held)


def linear_walk_world():
    """n0 -> n1 -> n2 -> n3 chain (drive 150 each) with returns, resources on the way."""
    nodes = [{"id": f"n{i}", "lat": 0.0, "lon": 0.0012 * i} for i in range(4)]
    edges = []
    for i in range(3):
        edges.append({"id": f"e{i}{i+1}", "from": f"n{i}", "to": f"n{i+1}",
                      "length_m": 130.0, "drive_time_s": 150.0})
        edges.append({"id": f"e{i+1}{i}", "from": f"n{i+1}", "to": f"n{i}",
                      "length_m": 130.0, "drive_time_s": 150.0})
    resources = [
        {"id": "rt", "edge": "e01", "lat": 0.0, "lon": 0.0006, "offset_s": 100.0, "round_trip_s": 120.0},
        {"id": "rx", "edge": "e12", "lat": 0.0, "lon": 0.0018, "offset_s": 75.0, "round_trip_s": 120.0},
        {"id": "ry", "edge": "e21", "lat": 0.0, "lon": 0.0018, "offset_s": 75.0, "round_trip_s": 120.0},
    ]
    return make_context({"nodes": nodes, "edges": edges, "resources": resources})


def test_edge_jump_weight_formula():
    graph, ctx = linear_walk_world()
    params = CtmcParams(0.01, 0.01)
    # occupied anchor, probability of still being occupied = 0.8 at dt
    dt = math.log(1.0 / 0.6) / 0.02
    view = PlanningView(ctx, 0.0, np.array([True, False, True]), params)

    # edge e12 ends at n2; drive n2 -> n0 is 300 s; with a 600 s isochrone delta = 0.5
    w = _edge_jump_weight(view, "e12", t_acc=dt, visited=set(),
                          dest_node_idx=ctx.node_index["n0"], isochrone_s=600.0, visit_decay=0.95)
    assert w == pytest.approx(0.5 * 0.2, abs=1e-9)

    # visited edges decay by 0.95; a certainly-available resource gives the full gamma
    w_visited = _edge_jump_weight(view, "e12", dt, {"e12"}, ctx.node_index["n0"], 600.0, 0.95)
    assert w_visited == pytest.approx(0.95 * 0.5 * 0.2, abs=1e-9)

    view_sure = PlanningView(ctx, 0.0, np.array([True, True, True]), FROZEN)
    w_sure = _edge_jump_weight(view_sure, "e12", 100.0, set(), ctx.node_index["n0"], 600.0, 0.95)
    delta = min(1.0, ctx.matrix.time("n2", "n0") / 600.0)
    assert w_sure == pytest.approx(delta * 1.0, rel=1e-6)


def test_create_adaptions_hand_arithmetic():
    graph, ctx = linear_walk_world()
    overlay = AdaptionOverlay()
    paths = [
        WalkPath(("e12",), 0.2, 500.0, "e12"),
        WalkPath(("e12",), 0.4, 700.0, "e12"),
        WalkPath(("e01", "e12"), 0.6, 900.0, "e12"),
    ]
    record = create_adaptions(paths, "agent", graph, overlay)
    # e12 holds one resource (rx): delta = mean(0.2, 0.4, 0.6) / 1
    assert len(record.entries) == 1
    entry = record.entries[0]
    assert entry.resource_id == "rx"
    assert entry.delta == pytest.approx(0.4)
    assert entry.activation_time == pytest.approx(700.0)


def test_create_adaptions_two_street_groups_split_mass():
    doc = {
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [
            {"id": "e1", "from": "a", "to": "b", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e2", "from": "b", "to": "a", "length_m": 100.0, "drive_time_s": 10.0},
        ],
        "resources": [
            {"id": "p", "edge": "e1", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0},
            {"id": "q", "edge": "e1", "lat": 0.0, "lon": 0.0005, "offset_s": 7.0},
            {"id": "z", "edge": "e2", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0},
        ],
    }
    graph, _ = make_context(doc)
    overlay = AdaptionOverlay()
    record = create_adaptions(
        [WalkPath(("e1",), 0.3, 100.0, "e1"), WalkPath(("e2",), 0.5, 200.0, "e2")],
        "agent", graph, overlay,
    )
    by_resource = {e.resource_id: e for e in record.entries}
    assert by_resource["p"].delta == pytest.approx(0.15)  # 0.3 split across p and q
    assert by_resource["q"].delta == pytest.approx(0.15)
    assert by_resource["z"].delta == pytest.approx(0.5)
    assert by_resource["p"].activation_time == 100.0
    assert by_resource["z"].activation_time == 200.0

    zero = create_adaptions([WalkPath((), 0.0, 50.0, "e1")], "agent", graph, AdaptionOverlay())
    # a group with zero expected mass creates zero-valued deltas
    assert zero.entries and all(e.delta == 0.0 for e in zero.entries)


def test_adapt_probabilities_zero_when_target_certainly_available():
    graph, ctx = linear_walk_world()
    view = PlanningView(ctx, 0.0, np.array([True, True, True]), FROZEN,
                        overlay=AdaptionOverlay(), agent_id="me")
    record = adapt_probabilities(view, "rt", t_arrival=0.0, agent="me",
                                 samples=20, isochrone_s=600.0, rng=np.random.default_rng(0))
    assert all(e.delta == pytest.approx(0.0, abs=1e-12) for e in record.entries)


def test_adapt_probabilities_walk_invariants():
    rng = np.random.default_rng(44)
    graph, ctx = linear_walk_world()
    params = CtmcParams.from_mean_times(600.0, 1800.0)
    overlay = AdaptionOverlay()
    view = PlanningView(ctx, 0.0, np.array([False, False, True]), params,
                        overlay=overlay, agent_id="me")
    t_arrival = 250.0
    target = graph.resources["rt"]
    p_initial = 1.0 - availability_probability(
        ResourceBelief("rt", ResourceState.OCCUPIED, 0.0, params), t_arrival
    )
    record = adapt_probabilities(view, "rt", t_arrival, "me",
                                 samples=40, isochrone_s=600.0, rng=rng)
    iso = isochrone_nodes(graph, ctx.matrix, graph.edges[target.edge_id].from_node, 600.0)
    for entry in record.entries:
        # each walk multiplies its survival mass by weights <= 1
        assert entry.delta <= p_initial + 1e-12
        assert entry.activation_time >= t_arrival - 1e-9
        street = graph.resources[entry.resource_id].edge_id
        assert graph.edges[street].to_node in iso or street == target.edge_id


def test_adapt_probabilities_degenerate_target():
    doc = {
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e1", "from": "a", "to": "b", "length_m": 100.0, "drive_time_s": 10.0}],
        "resources": [{"id": "r", "edge": "e1", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0}],
    }
    graph, ctx = make_context(doc)
    view = PlanningView(ctx, 0.0, np.array([True]), FROZEN, overlay=AdaptionOverlay(), agent_id="me")
    with pytest.raises(DegenerateTargetError):
        adapt_probabilities(view, "r", 10.0, "me", samples=5, isochrone_s=300.0,
                            rng=np.random.default_rng(1))


def test_reverse_adaptions_round_trip_exact():
    rng = np.random.default_rng(17)
    graph, ctx = linear_walk_world()
    params = CtmcParams.from_mean_times(300.0, 900.0)
    overlay = AdaptionOverlay()
    beliefs = {rid: ResourceBelief(rid, ResourceState.AVAILABLE, 0.0, params)
               for rid in graph.resources}
    probes = [(rid, float(rng.uniform(0, 2000))) for rid in graph.resources for _ in range(4)]

    base_record = create_adaptions([WalkPath(("e12",), 0.25, 400.0, "e12")], "keeper", graph, overlay)
    before = [availability_probability(beliefs[rid], t, overlay) for rid, t in probes]

    view = PlanningView(ctx, 0.0, np.array([False, True, False]), params,
                        overlay=overlay, agent_id="walker")
    record = adapt_probabilities(view, "rt", 300.0, "walker", samples=25,
                                 isochrone_s=600.0, rng=rng)
    reverse_adaptions(record, overlay)
    after = [availability_probability(beliefs[rid], t, overlay) for rid, t in probes]
    assert after == before  # exact restoration

    with pytest.raises(AdaptionError):
        reverse_adaptions(record, overlay)  # second reversal

    # keeper's entries survive interleaved reversal
    assert all(e.owner == "keeper" for rid in graph.resources
               for e in overlay.entries_for(rid))
    reverse_adaptions(base_record, overlay)
    assert len(overlay) == 0
