import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from parksearch import planners
from parksearch.availability import CtmcParams
from parksearch.errors import NoPathError
from parksearch.fleet import ReservationTable
from parksearch.geo import EARTH_RADIUS_M, GeoPoint, great_circle_m
from parksearch.planners import (
    PLANNER_KINDS,
    FutureMinima,
    HeuristicPolicy,
    HindsightPolicy,
    PlannerContext,
    PlannerSettings,
    PlanningView,
    RandomPolicy,
    ReplanningPolicy,
    TakeResource,
    TakeRoad,
    make_policy,
    modal_choice,
    replan_route,
    sample_determinizations,
    solve_determinization,
)
from parksearch.scenario import build_grid_graph_doc

from conftest import make_context, random_graph_doc, triangle_doc

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
FROZEN = CtmcParams(1e-9, 1e-9)  # state changes are effectively impossible


def offset_point(walk_s: float) -> dict:
    """lat/lon of a point whose walk time to (0, 0) is exactly walk_s."""
    return {"lat": walk_s * 1.42 / M_PER_DEG, "lon": 0.0}


def two_candidate_world():
    """Start s; resource A at drive 40 / walk 60, resource B at drive 70 / walk 20."""
    doc = {
        "nodes": [
            {"id": "a", "lat": 0.01, "lon": 0.01},
            {"id": "b", "lat": 0.01, "lon": 0.02},
            {"id": "s", "lat": 0.01, "lon": 0.03},
        ],
        "edges": [
            {"id": "e-as", "from": "a", "to": "s", "length_m": 100.0, "drive_time_s": 40.0},
            {"id": "e-bs", "from": "b", "to": "s", "length_m": 100.0, "drive_time_s": 70.0},
            {"id": "e-sa", "from": "s", "to": "a", "length_m": 100.0, "drive_time_s": 40.0},
            {"id": "e-sb", "from": "s", "to": "b", "length_m": 100.0, "drive_time_s": 70.0},
        ],
        "resources": [
            {"id": "rA", "edge": "e-as", "offset_s": 0.0, **offset_point(60.0)},
            {"id": "rB", "edge": "e-bs", "offset_s": 0.0, **offset_point(20.0)},
        ],
    }
    graph, ctx = make_context(doc)
    return graph, ctx, GeoPoint(0.0, 0.0)


def make_view(ctx, avail, params=FROZEN, now=0.0, **kw):
    return PlanningView(ctx, now, np.asarray(avail, dtype=bool), params, **kw)


def test_replan_single_adjacent_resource():
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "t", "lat": 0.0, "lon": 0.001}],
        "edges": [
            {"id": "e-st", "from": "s", "to": "t", "length_m": 50.0, "drive_time_s": 10.0},
            {"id": "e-ts", "from": "t", "to": "s", "length_m": 50.0, "drive_time_s": 10.0},
        ],
        "resources": [{"id": "r", "edge": "e-st", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0}],
    }
    graph, ctx = make_context(doc)
    view = make_view(ctx, [True])
    decision = replan_route(view, "s", GeoPoint(0.0, 0.001))
    assert decision.action == TakeResource("r")
    assert decision.target_resource == "r"
    assert decision.expected_arrival == pytest.approx(5.0)


def test_replan_picks_cheaper_total():
    graph, ctx, dest = two_candidate_world()
    view = make_view(ctx, [True, True])
    decision = replan_route(view, "s", dest)
    # A totals 40 + 60 = 100, B totals 70 + 20 = 90
    assert decision.target_resource == "rB"
    assert decision.action == TakeRoad("e-sb")
    assert decision.expected_arrival == pytest.approx(70.0)
    walk = ctx.walk_vector(dest)[ctx.res_index[decision.target_resource]]
    assert decision.expected_arrival + walk == pytest.approx(90.0, abs=1e-6)


def test_replan_avoids_expensive_wait():
    graph, ctx, dest = two_candidate_world()
    params = CtmcParams.from_mean_times(120.0, 2091.0)  # t_claim(120) about 3388 s
    view = make_view(ctx, [True, False], params=params)
    decision = replan_route(view, "s", dest)
    # waiting at B costs 70 + t_claim + 20 >> 100, so A wins despite worse walk
    assert decision.target_resource == "rA"
    assert decision.action == TakeRoad("e-sa")


def test_replan_no_reachable_resource_raises():
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "t", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e", "from": "t", "to": "s", "length_m": 10.0, "drive_time_s": 5.0}],
        "resources": [{"id": "r", "edge": "e", "lat": 0.0, "lon": 0.0005, "offset_s": 0.0}],
    }
    graph, ctx = make_context(doc)
    view = make_view(ctx, [True])
    with pytest.raises(NoPathError):
        replan_route(view, "s", GeoPoint(0.0, 0.0))  # s has no outgoing edges


def test_replanning_policy_cache_contract():
    graph, ctx, dest = two_candidate_world()
    policy = ReplanningPolicy(ctx, dest)
    rng = np.random.default_rng(0)

    first = policy.decide(make_view(ctx, [True, True]), "s", rng)
    assert first.recomputed  # no cache yet
    again = policy.decide(make_view(ctx, [True, True]), "s", rng)
    assert not again.recomputed
    assert again.action == first.action

    # target rB flips occupied: plan recomputed toward rA
    changed = policy.decide(make_view(ctx, [True, False]), "s", rng)
    assert changed.recomputed
    assert changed.target_resource == "rA"


def test_replan_and_cached_plan_predict_the_same_arrival():
    """s->a takes 0.2 s and spot r sits 0.3 s along a->b. At t = 0.1 replanning and the cached plan
    both predict 0.1 + (0.2 + 0.3), so a000's reservation of r wins the equal-arrival tie against
    a001, the larger id, whichever path made each prediction."""
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "a", "lat": 0.0, "lon": 0.001},
                  {"id": "b", "lat": 0.0, "lon": 0.002}],
        "edges": [
            {"id": "e-sa", "from": "s", "to": "a", "length_m": 50.0, "drive_time_s": 0.2},
            {"id": "e-ab", "from": "a", "to": "b", "length_m": 50.0, "drive_time_s": 1.0},
            {"id": "e-bs", "from": "b", "to": "s", "length_m": 50.0, "drive_time_s": 1.0},
        ],
        "resources": [{"id": "r", "edge": "e-ab", "lat": 0.0, "lon": 0.0015, "offset_s": 0.3},
                      {"id": "r2", "edge": "e-bs", "lat": 0.0, "lon": 0.001, "offset_s": 0.3}],
    }
    graph, ctx = make_context(doc)
    dest = GeoPoint(0.0, 0.0015)
    table = ReservationTable()
    params = CtmcParams.from_mean_times(120.0, 2091.0)

    def view(agent):
        return make_view(ctx, [True, True], params=params, now=0.1, reservations=table, agent_id=agent)

    policy = ReplanningPolicy(ctx, dest)
    rng = np.random.default_rng(0)
    first = policy.decide(view("a000"), "s", rng)
    second = policy.decide(view("a000"), "s", rng)
    assert first.recomputed and not second.recomputed
    assert first.target_resource == second.target_resource == "r"
    assert first.expected_arrival == second.expected_arrival == 0.1 + (0.2 + 0.3)

    table.place("a000", "r", second.expected_arrival)
    assert view("a001").reserved([second.expected_arrival], [ctx.res_index["r"]])[0]
    assert replan_route(view("a001"), "s", dest).target_resource == "r2"


def test_sample_determinizations_certain_and_reserved():
    graph, ctx, dest = two_candidate_world()
    doc_offsets_zero = ctx.res_offset
    assert (doc_offsets_zero == 0).all()

    # from node a, rA is at drive 0: probability 1 when anchored available
    view = make_view(ctx, [True, True])
    dets = sample_determinizations(view, "a", 50, np.random.default_rng(1))
    assert all(d.available[ctx.res_index["rA"]] for d in dets)

    table = ReservationTable()
    table.place("other", "rA", t_arrival=-1.0)  # strictly earlier than any arrival
    view_r = make_view(ctx, [True, True], reservations=table, agent_id="me")
    dets = sample_determinizations(view_r, "a", 50, np.random.default_rng(2))
    assert not any(d.available[ctx.res_index["rA"]] for d in dets)


def test_sample_determinizations_binomial_concentration():
    graph, ctx, dest = two_candidate_world()
    params = CtmcParams(0.01, 0.01)
    view = make_view(ctx, [True, True], params=params, now=0.0)
    # arrival at rA from a is immediate; shift anchor far into the past via `now`
    # instead: query a long horizon by sampling from s (drive 40) has dt 40; too short.
    # Use the stationary trick: lam = mu and a large dt gives probability 1/2.
    dets = sample_determinizations(
        PlanningView(ctx, 0.0, np.array([True, True]), params), "a", 10_000,
        np.random.default_rng(3),
    )
    # rB's street starts at b, which is drive 110 from a (a->s 40, s->b 70)
    p_expected = 0.5 + 0.5 * math.exp(-0.02 * 110.0)
    count = sum(int(d.available[ctx.res_index["rB"]]) for d in dets)
    assert count == pytest.approx(10_000 * p_expected, abs=150)


def test_solve_determinization_formula_and_tie():
    graph, ctx, dest = two_candidate_world()
    params = CtmcParams.from_mean_times(120.0, 2091.0)
    view = make_view(ctx, [True, True], params=params)

    # both occupied in the future: uniform penalty keeps B cheapest
    from parksearch.planners import Determinization

    d_occ = Determinization(available=np.array([False, False]))
    rid, cost = solve_determinization(view, "s", d_occ, dest)
    t_claim = float(view.t_claim[0])
    assert rid == "rB"
    assert cost == pytest.approx(70.0 + t_claim + 20.0, rel=1e-9)

    d_a = Determinization(available=np.array([True, False]))
    rid, cost = solve_determinization(view, "s", d_a, dest)
    assert rid == "rA" and cost == pytest.approx(100.0, rel=1e-9)


def test_solve_determinization_matches_enumeration():
    from parksearch.geo import walking_time
    from parksearch.planners import Determinization

    rng = np.random.default_rng(14)
    for _ in range(30):
        doc = random_graph_doc(rng, n_nodes=8, edge_prob=0.4, n_resources=5)
        graph, ctx = make_context(doc)
        if not graph.resources:
            continue
        params = CtmcParams.from_mean_times(120.0, 2091.0)
        view = make_view(ctx, rng.random(len(graph.resources)) < 0.5, params=params)
        dest = GeoPoint(float(rng.uniform(-0.01, 0.01)), float(rng.uniform(-0.01, 0.01)))
        avail = rng.random(len(graph.resources)) < 0.5
        det = Determinization(available=avail)
        start = str(rng.choice(list(graph.nodes)))

        best_id, best_cost = None, np.inf
        for i, rid in enumerate(ctx.res_ids):
            r = graph.resources[rid]
            drive = ctx.drive_time(start, graph.edges[r.edge_id].from_node) + r.offset_s
            cost = drive + walking_time(r.position, dest)
            if not avail[i]:
                cost += float(view.t_claim[i])
            if cost < best_cost:
                best_id, best_cost = rid, cost
        if not np.isfinite(best_cost):
            with pytest.raises(NoPathError):
                solve_determinization(view, start, det, dest)
            continue
        rid, cost = solve_determinization(view, start, det, dest)
        assert rid == best_id
        assert cost == best_cost


def test_solve_determinization_tie_breaks_to_smaller_id():
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "t", "lat": 0.0, "lon": 0.001}],
        "edges": [
            {"id": "e-st", "from": "s", "to": "t", "length_m": 50.0, "drive_time_s": 10.0},
            {"id": "e-ts", "from": "t", "to": "s", "length_m": 50.0, "drive_time_s": 10.0},
        ],
        "resources": [
            {"id": "r1", "edge": "e-st", "lat": 0.0, "lon": 0.0004, "offset_s": 3.0},
            {"id": "r2", "edge": "e-st", "lat": 0.0, "lon": 0.0004, "offset_s": 3.0},
        ],
    }
    graph, ctx = make_context(doc)
    from parksearch.planners import Determinization

    view = make_view(ctx, [True, True])
    rid, _ = solve_determinization(view, "s", Determinization(available=np.array([True, True])),
                                   GeoPoint(0.0, 0.0))
    assert rid == "r1"


def hindsight_world():
    """Near spot: offset 10 + walk 20 = 30 terminal; far spot walk 220."""
    doc = {
        "nodes": [
            {"id": "a", "lat": 0.01, "lon": 0.001},
            {"id": "s", "lat": 0.01, "lon": 0.0},
        ],
        "edges": [
            {"id": "e-as", "from": "a", "to": "s", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e-sa", "from": "s", "to": "a", "length_m": 100.0, "drive_time_s": 30.0},
        ],
        "resources": [
            {"id": "rF", "edge": "e-as", "offset_s": 0.0, **offset_point(220.0)},
            {"id": "rN", "edge": "e-sa", "offset_s": 10.0, **offset_point(20.0)},
        ],
    }
    return make_context(doc)


def test_hindsight_takes_adjacent_resource():
    graph, ctx = hindsight_world()
    policy = HindsightPolicy(ctx, GeoPoint(0.0, 0.0), PlannerSettings(determinizations=100))
    view = make_view(ctx, [True, True])
    decision = policy.decide(view, "s", np.random.default_rng(1))
    assert decision.action == TakeResource("rN")
    assert decision.expected_arrival == pytest.approx(10.0)
    # one-step look-ahead of the only road action: 30 to drive, then the best
    # hindsight solution from `a` costs 60 via rN in every certain future
    walk = ctx.walk_vector(GeoPoint(0.0, 0.0))
    _, probs = planners._future_probabilities(view, ctx.drive_to_resources("s"))
    futures = FutureMinima(view, ctx.drive_to_resources(["a"]) + walk, policy._uniforms, probs)
    assert 30.0 + futures.mins.mean(axis=1)[0] == pytest.approx(90.0, rel=1e-6)
    rn = ctx.res_index["rN"]
    assert ctx.res_offset[rn] + walk[rn] == pytest.approx(30.0, rel=1e-9)  # the spot action's value


def test_hindsight_single_road_action():
    graph, ctx = hindsight_world()
    policy = HindsightPolicy(ctx, GeoPoint(0.0, 0.0))
    view = make_view(ctx, [True, False])  # near spot occupied: no terminal action at s
    decision = policy.decide(view, "s", np.random.default_rng(1))
    assert decision.action == TakeRoad("e-sa")
    assert decision.target_resource is not None


def test_hindsight_deterministic_with_seed():
    graph, ctx = hindsight_world()
    view_args = ([True, True],)
    d1 = HindsightPolicy(ctx, GeoPoint(0.0, 0.0)).decide(make_view(ctx, *view_args), "s",
                                                         np.random.default_rng(7))
    d2 = HindsightPolicy(ctx, GeoPoint(0.0, 0.0)).decide(make_view(ctx, *view_args), "s",
                                                         np.random.default_rng(7))
    assert d1 == d2


def test_modal_choice_tie_break():
    choices = np.array([3] * 70 + [1] * 30)
    assert modal_choice(choices, 5) == 3
    assert modal_choice(np.array([2] * 50 + [1] * 50), 5) == 1  # tie: smaller index


def crossroads_world():
    """Node c with three outgoing streets and no resources near c."""
    doc = {
        "nodes": [
            {"id": "c", "lat": 0.0, "lon": 0.0},
            {"id": "x", "lat": 0.001, "lon": 0.0},
            {"id": "y", "lat": 0.0, "lon": 0.001},
            {"id": "z", "lat": -0.001, "lon": 0.0},
        ],
        "edges": [
            {"id": "e-cx", "from": "c", "to": "x", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-cy", "from": "c", "to": "y", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-cz", "from": "c", "to": "z", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-xc", "from": "x", "to": "c", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-yc", "from": "y", "to": "c", "length_m": 100.0, "drive_time_s": 10.0},
            {"id": "e-zc", "from": "z", "to": "c", "length_m": 100.0, "drive_time_s": 10.0},
        ],
        "resources": [
            {"id": "r", "edge": "e-xc", "lat": 0.0005, "lon": 0.0, "offset_s": 5.0},
        ],
    }
    return make_context(doc)


def test_random_policy_street_then_spot():
    graph, ctx = crossroads_world()
    dest = GeoPoint(0.0005, 0.0)  # destination on street x -> c
    policy = RandomPolicy(ctx, dest)
    assert policy.dest_edge.id in ("e-xc", "e-cx")

    rng = np.random.default_rng(0)
    # before reaching the destination street: least-time hop toward it
    view = make_view(ctx, [True])
    decision = policy.decide(view, "z", rng)
    assert decision.action == TakeRoad("e-zc")

    # once searching, an available spot on the randomly chosen street is taken
    policy2 = RandomPolicy(ctx, dest)
    policy2._searching = True
    took = 0
    for _ in range(200):
        d = policy2.decide(make_view(ctx, [True]), "x", rng)
        if isinstance(d.action, TakeResource):
            took += 1
            assert d.action.resource == "r"
    assert took == 200  # x has a single outgoing street and it holds the spot


def scalar_dest_edge(ctx, destination):
    """Oracle: the street whose midpoint is nearest, scanned in graph order with the scalar formula."""
    best_eid, best_walk = None, np.inf
    for eid, e in ctx.graph.edges.items():
        a = ctx.graph.nodes[e.from_node].position
        b = ctx.graph.nodes[e.to_node].position
        mid = GeoPoint((a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0)
        w = great_circle_m(mid, destination)
        if w < best_walk:
            best_eid, best_walk = eid, w
    return best_eid


@pytest.mark.parametrize("one_way", [False, True])
def test_random_policy_dest_edge_matches_scalar_oracle(one_way):
    spacing = 440.0
    graph, ctx = make_context(build_grid_graph_doc(10, 10, spacing_m=spacing, n_resources=20, seed=42,
                                                   one_way=one_way))
    deg = spacing / 111_194.93
    rng = np.random.default_rng(2024)
    dests = [GeoPoint(float(rng.uniform(-0.5, 9.5)) * deg, float(rng.uniform(-0.5, 9.5)) * deg)
             for _ in range(200)]
    # block centres are equidistant from four streets (eight on two-way grids), and
    # street midpoints tie both directions of a two-way street
    dests += [GeoPoint(4.5 * deg, 4.5 * deg), GeoPoint(0.5 * deg, 0.5 * deg), GeoPoint(0.0, 2.5 * deg),
              GeoPoint(4.5 * deg, 3.0 * deg), GeoPoint(9.0 * deg, 7.5 * deg)]
    for dest in dests:
        assert RandomPolicy(ctx, dest).dest_edge.id == scalar_dest_edge(ctx, dest), dest


def test_random_policy_dest_edge_ignores_last_ulp_of_vectorized_distances(monkeypatch):
    # The vectorized haversine may round differently from the scalar one; nudge
    # every distance by one ulp, alternately up and down, and the pick must not move.
    spacing = 440.0
    graph, ctx = make_context(build_grid_graph_doc(10, 10, spacing_m=spacing, n_resources=20, seed=42))
    exact = planners.great_circle_m_many

    def nudged(lat, lon, point):
        d = exact(lat, lon, point)
        return np.where(np.arange(len(d)) % 2 == 0, np.nextafter(d, np.inf), np.nextafter(d, 0.0))

    monkeypatch.setattr(planners, "great_circle_m_many", nudged)
    deg = spacing / 111_194.93
    for dest in (GeoPoint(4.5 * deg, 4.5 * deg), GeoPoint(0.0, 2.5 * deg), GeoPoint(3.0 * deg, 6.5 * deg)):
        assert RandomPolicy(ctx, dest).dest_edge.id == scalar_dest_edge(ctx, dest), dest


def test_random_policy_uniform_street_choice():
    graph, ctx = crossroads_world()
    dest = GeoPoint(0.0005, 0.0)
    policy = RandomPolicy(ctx, dest)
    policy._searching = True
    rng = np.random.default_rng(12)
    counts = {"e-cx": 0, "e-cy": 0, "e-cz": 0}
    trials = 30_000
    view = make_view(ctx, [False])  # the one spot is occupied: pure street choice
    for _ in range(trials):
        d = policy.decide(view, "c", rng)
        counts[d.action.edge] += 1
    for edge, count in counts.items():
        assert count / trials == pytest.approx(1 / 3, abs=0.02), edge


BAD_SETTINGS = {
    "determinizations": 0,
    "scope_horizon_s": 0.0,
    "heuristic_far_radius_m": -1.0,
    "heuristic_accept_walk_s": math.nan,
    "heuristic_relax_s_per_min": math.inf,
    "adaption_samples": 2.5,
    "adaption_isochrone_s": -300.0,
    "adaption_visit_decay": True,
    "adaption_max_steps": None,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PlannerSettings)])
def test_planner_settings_reject_out_of_bounds_values(name):
    with pytest.raises(ValueError, match=re.escape(name)):
        PlannerSettings(**{name: BAD_SETTINGS[name]})


def test_heuristic_policy_thresholds():
    graph, ctx = crossroads_world()
    dest = GeoPoint(0.0005, 0.0)
    settings = PlannerSettings(heuristic_far_radius_m=500.0, heuristic_accept_walk_s=60.0)

    # far away (about 111 m per milli-degree: node z is ~167 m, x is ~55 m from dest)
    far_dest = GeoPoint(-0.004, 0.0)
    far_policy = HeuristicPolicy(ctx, far_dest, settings)
    d = far_policy.decide(make_view(ctx, [True]), "x", np.random.default_rng(0))
    assert isinstance(d.action, TakeRoad)  # outside the radius nothing is accepted

    policy = HeuristicPolicy(ctx, dest, settings)
    d = policy.decide(make_view(ctx, [True]), "x", np.random.default_rng(0))
    assert d.action == TakeResource("r")  # walk 0 s <= threshold 60 s

    assert policy.accept_threshold(600.0) >= policy.accept_threshold(0.0)
    assert policy.accept_threshold(600.0) == pytest.approx(160.0)  # 60 base + 10 min * 10 s


def test_policies_are_pure_functions_of_inputs():
    graph, ctx, dest = two_candidate_world()
    for kind in ("random", "heuristic", "rpl", "hs"):
        a = make_policy(kind, ctx, dest, PlannerSettings(determinizations=20))
        b = make_policy(kind, ctx, dest, PlannerSettings(determinizations=20))
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        for node in ("s", "a", "s", "b"):
            da = a.decide(make_view(ctx, [True, True]), node, rng_a)
            db = b.decide(make_view(ctx, [True, True]), node, rng_b)
            assert da == db, kind


def test_context_rejects_drive_times_of_the_wrong_shape():
    graph, ctx = make_context(triangle_doc())
    for times in (ctx.M[:2, :2], ctx.M[:, :2], ctx.M.ravel()):
        with pytest.raises(ValueError, match="3x3"):
            PlannerContext(graph, times)


def sorted_adjacent_spots(graph, ctx):
    """Oracle: each node's spot indices sorted by (street id, offset, spot id)."""
    adj = {nid: [] for nid in graph.nodes}
    for i, rid in enumerate(ctx.res_ids):
        adj[graph.edges[graph.resources[rid].edge_id].from_node].append(i)

    def key(i):
        return graph.resources[ctx.res_ids[i]].edge_id, ctx.res_offset[i], ctx.res_ids[i]
    return {nid: tuple(sorted(ids, key=key)) for nid, ids in adj.items()}


def test_adjacent_spots_follow_street_order():
    rng = np.random.default_rng(1313)
    docs = []
    for _ in range(30):
        doc = random_graph_doc(rng, n_nodes=6, edge_prob=0.4, n_resources=20)
        for r in doc["resources"]:
            r["offset_s"] = float(rng.integers(2))  # equal offsets on one street tie-break by spot id
        docs.append(doc)
    docs.append(build_grid_graph_doc(5, 5, n_resources=60, seed=7, one_way=True))
    for doc in docs:
        graph, ctx = make_context(doc)
        assert ctx.out_edges is graph.out_edges
        for nid, edges in graph.out_edges.items():
            assert [e.id for e in edges] == sorted(e.id for e in graph.edges.values() if e.from_node == nid)
        assert ctx.adjacent_res == sorted_adjacent_spots(graph, ctx)


def test_actions_are_adjacent_on_random_worlds():
    rng = np.random.default_rng(31)
    for _ in range(10):
        doc = random_graph_doc(rng, n_nodes=10, edge_prob=0.35, n_resources=4)
        graph, ctx = make_context(doc)
        if not graph.resources:
            continue
        dest = GeoPoint(0.0, 0.0)
        view = make_view(ctx, rng.random(len(graph.resources)) < 0.6,
                         params=CtmcParams.from_mean_times(300.0, 900.0))
        node = str(rng.choice(list(graph.nodes)))
        for kind in ("rpl", "hs", "random", "heuristic"):
            policy = make_policy(kind, ctx, dest, PlannerSettings(determinizations=10))
            try:
                decision = policy.decide(view, node, rng)
            except NoPathError:
                continue
            if isinstance(decision.action, TakeRoad):
                assert graph.edges[decision.action.edge].from_node == node
            else:
                edge = graph.edges[graph.resources[decision.action.resource].edge_id]
                assert edge.from_node == node


def test_decisions_follow_the_arrival_rule_on_random_worlds():
    """Every targeted decision of every kind predicts ``now + drive_to_resources(node)[target]``;
    a hindsight road action predicts that sum from its edge's end, ``now + drive_time_s``. Weights
    are not integers, so another grouping of the sum would show in the last ulp."""
    rng = np.random.default_rng(32)
    params = CtmcParams.from_mean_times(300.0, 900.0)
    checked = Counter()
    for _ in range(12):
        graph, ctx = make_context(random_graph_doc(rng, n_nodes=8, edge_prob=0.4, n_resources=6,
                                                   integer_weights=False))
        if not graph.resources:
            continue
        dest = GeoPoint(float(rng.uniform(-5e-4, 5e-4)), float(rng.uniform(-5e-4, 5e-4)))  # spots lie at (0, 0)
        avail = rng.random(ctx.n_resources) < 0.6
        for kind in PLANNER_KINDS:
            policy = make_policy(kind, ctx, dest, PlannerSettings(determinizations=10))
            table = ReservationTable()
            table.place("other", ctx.res_ids[int(rng.integers(ctx.n_resources))], float(rng.uniform(0, 500)))
            node, now = str(rng.choice(list(graph.nodes))), float(rng.uniform(0, 1000))
            for _ in range(6):
                view = make_view(ctx, avail, params=params, now=now, reservations=table, agent_id="me")
                try:
                    decision = policy.decide(view, node, rng)
                except NoPathError:
                    break
                edge = graph.edges[decision.action.edge] if isinstance(decision.action, TakeRoad) else None
                if decision.target_resource is not None:
                    ridx = ctx.res_index[decision.target_resource]
                    start, at = ((edge.to_node, now + edge.drive_time_s)
                                 if edge is not None and isinstance(policy, HindsightPolicy) else (node, now))
                    assert decision.expected_arrival == at + ctx.drive_to_resources(start)[ridx], kind
                    checked[kind, decision.recomputed] += 1
                if edge is None:
                    break
                node, now = edge.to_node, now + edge.drive_time_s
    assert all(checked[kind, True] for kind in PLANNER_KINDS), checked
    assert checked["rpl_r", False], checked  # the cached plan's fast path


def test_drive_rows_for_a_node_list_are_c_ordered_single_node_rows():
    """Hindsight reduces each row along resources, so the rows of a node list must be C-ordered,
    and each must equal that node's own row bit for bit, repeats and unreachable pairs included."""
    rng = np.random.default_rng(21)
    checked = unreachable = repeated = 0
    for _ in range(20):
        graph, ctx = make_context(random_graph_doc(rng, n_nodes=9, edge_prob=0.3, n_resources=7,
                                                   integer_weights=False))
        nodes = [str(n) for n in rng.choice(list(graph.nodes), size=int(rng.integers(1, 6)))]
        rows = ctx.drive_to_resources(nodes)
        assert rows.shape == (len(nodes), ctx.n_resources)
        assert rows.flags.c_contiguous
        unreachable += int(np.isinf(rows).any())
        repeated += len(set(nodes)) < len(nodes)
        for k, node in enumerate(nodes):
            assert np.array_equal(rows[k], ctx.drive_to_resources(node))
            checked += 1
    assert checked > 40 and unreachable and repeated
