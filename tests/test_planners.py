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
from parksearch.geo import EARTH_RADIUS_M, GeoPoint, great_circle_m, great_circle_m_many
from parksearch.planners import (
    PLANNER_KINDS,
    HeuristicPolicy,
    HindsightPlan,
    HindsightPolicy,
    PlannerContext,
    PlannerSettings,
    PlanningView,
    RandomPolicy,
    ReplanningPolicy,
    RouteDecision,
    TakeResource,
    TakeRoad,
    make_policy,
    modal_choice,
    replan_route,
)
from parksearch.scenario import build_grid_graph_doc

from conftest import bellman_ford_times, make_context, make_view, random_graph_doc, triangle_doc
from drive_time_oracle import dense_travel_times
from hindsight_oracle import Determinization, sample_determinizations, solve_determinization

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0


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
    decision = replan_route(view, ctx.node_index["s"], GeoPoint(0.0, 0.001))
    assert decision.action == TakeResource(ctx.res_index["r"])
    assert decision.target_resource == ctx.res_index["r"]
    assert decision.expected_arrival == pytest.approx(5.0)


def test_replan_picks_cheaper_total():
    graph, ctx, dest = two_candidate_world()
    view = make_view(ctx, [True, True])
    decision = replan_route(view, ctx.node_index["s"], dest)
    # A totals 40 + 60 = 100, B totals 70 + 20 = 90
    assert ctx.res_ids[decision.target_resource] == "rB"
    assert decision.action == TakeRoad(ctx.edge_ids.index("e-sb"))
    assert decision.expected_arrival == pytest.approx(70.0)
    walk = ctx.walk_vector(dest)[decision.target_resource]
    assert decision.expected_arrival + walk == pytest.approx(90.0, abs=1e-6)


def test_replan_avoids_expensive_wait():
    graph, ctx, dest = two_candidate_world()
    params = CtmcParams.from_mean_times(120.0, 2091.0)  # t_claim(120) about 3388 s
    view = make_view(ctx, [True, False], params=params)
    decision = replan_route(view, ctx.node_index["s"], dest)
    # waiting at B costs 70 + t_claim + 20 >> 100, so A wins despite worse walk
    assert ctx.res_ids[decision.target_resource] == "rA"
    assert decision.action == TakeRoad(ctx.edge_ids.index("e-sa"))


def test_replan_no_reachable_resource_raises():
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "t", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e", "from": "t", "to": "s", "length_m": 10.0, "drive_time_s": 5.0}],
        "resources": [{"id": "r", "edge": "e", "lat": 0.0, "lon": 0.0005, "offset_s": 0.0}],
    }
    graph, ctx = make_context(doc)
    view = make_view(ctx, [True])
    with pytest.raises(NoPathError):
        replan_route(view, ctx.node_index["s"], GeoPoint(0.0, 0.0))  # s has no outgoing edges


def test_replanning_policy_cache_contract():
    graph, ctx, dest = two_candidate_world()
    policy = ReplanningPolicy(ctx, dest)
    rng = np.random.default_rng(0)

    s = ctx.node_index["s"]
    first = policy.decide(make_view(ctx, [True, True]), s, rng)
    assert first.recomputed  # no cache yet
    again = policy.decide(make_view(ctx, [True, True]), s, rng)
    assert not again.recomputed
    assert again.action == first.action

    # target rB flips occupied: plan recomputed toward rA
    changed = policy.decide(make_view(ctx, [True, False]), s, rng)
    assert changed.recomputed
    assert ctx.res_ids[changed.target_resource] == "rA"


def test_replan_and_cached_plan_predict_the_same_arrival():
    """s->a takes 0.2 s and spot r sits 0.3 s along a->b. At t = 0.1 replanning and the cached plan
    both predict 0.1 + (0.2 + 0.3), so agent 0's reservation of r wins the equal-arrival tie against
    agent 1, the larger index, whichever path made each prediction."""
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
    table = ReservationTable(2)
    params = CtmcParams.from_mean_times(120.0, 2091.0)

    def view(agent):
        return make_view(ctx, [True, True], params=params, now=0.1, reservations=table, agent_id=agent)

    policy = ReplanningPolicy(ctx, dest)
    rng = np.random.default_rng(0)
    s = ctx.node_index["s"]
    first = policy.decide(view(0), s, rng)
    second = policy.decide(view(0), s, rng)
    r = ctx.res_index["r"]
    assert first.recomputed and not second.recomputed
    assert first.target_resource == second.target_resource == r
    assert first.expected_arrival == second.expected_arrival == 0.1 + (0.2 + 0.3)

    table.place(0, r, second.expected_arrival)
    assert table.spot_blocked(1, r, second.expected_arrival)
    assert ctx.res_ids[replan_route(view(1), s, dest).target_resource] == "r2"


def oracle_replan(view, node, destination):
    """Per-spot scalar oracle of ``replan_route``: each spot costs ``((row[start] + offset) + walk) + wait``
    in Python floats, where ``wait`` is 0 if the spot is free now and no other fleet agent reaches it
    first (the scalar reservation rule), else its ``t_claim``; ties go to the first index. Returns that
    spot, how many spots share its cost and the arrival there, or None when no spot costs a finite amount."""
    ctx, table = view.ctx, view.reservations
    row, walk = ctx.times[node], ctx.walk_vector(destination)
    costs, arrivals = [], []
    for i in range(ctx.n_resources):
        drive = float(row[int(ctx.res_from_idx[i])]) + float(ctx.res_offset[i])
        arrival = view.now + drive
        blocked = table is not None and any(
            a != view.agent_id and (float(table.arrival[a]) < arrival or (
                float(table.arrival[a]) == arrival and (view.agent_id is None or a < view.agent_id)))
            for a in range(len(table.spot)) if table.spot[a] == i)
        free = bool(view.avail[i]) and not blocked
        costs.append((drive + float(walk[i])) + (0.0 if free else float(view.t_claim[i])))
        arrivals.append(arrival)
    least = min(costs, default=math.inf)
    if not least < math.inf:
        return None
    best = costs.index(least)
    return best, costs.count(least), arrivals[best]


def test_replan_route_matches_the_scalar_oracle(monkeypatch):
    """On seeded random worlds, with and without reservations, replan_route's target, action and
    arrival equal the oracle's, whether the free spots alone decide or every spot is priced: worlds
    with no free spot, with every free spot unreachable, and with circling waits cheaper than every
    free spot force the full vector."""
    calls = Counter()
    claim_wait = PlanningView.claim_wait

    def counted_claim_wait(self, available):  # only the full-vector pricing pays circling waits
        calls["full vector"] += 1
        return claim_wait(self, available)

    monkeypatch.setattr(PlanningView, "claim_wait", counted_claim_wait)
    rng = np.random.default_rng(2507)
    seen = Counter()
    for _ in range(60):
        doc = random_graph_doc(rng, int(rng.integers(4, 10)), edge_prob=float(rng.uniform(0.15, 0.45)),
                               n_resources=int(rng.integers(1, 14)), integer_weights=bool(rng.random() < 0.5))
        for r in doc["resources"]:
            if rng.random() < 0.6:
                r["lat"], r["lon"] = float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.02, 0.02))
            else:  # at (0, 0) and the street's start, so whole-second streets make equal costs
                r["offset_s"] = 0.0
        if not doc["resources"]:
            continue
        graph, ctx = make_context(doc)
        n, n_agents = ctx.n_resources, 4
        for _ in range(8):
            node = int(rng.integers(len(ctx.node_ids)))
            now = float(rng.choice([0.0, rng.uniform(0.0, 100.0)]))
            drive = ctx.drive_to_resources(node)
            case = str(rng.choice(["random", "none free", "unreachable free", "cheap wait"]))
            if case == "unreachable free":
                avail = ~np.isfinite(drive)
                if not avail.any() or avail.all():
                    case, avail = "random", rng.random(n) < 0.5
            else:
                avail = np.zeros(n, dtype=bool) if case == "none free" else rng.random(n) < 0.5
            low, high, cap = (0.0, 5.0, 0.0) if case == "cheap wait" else (2000.0, 4000.0, 0.1)
            t_claim = np.where(rng.random(n) < cap, np.inf, rng.uniform(low, high, n))
            table, agent = None, None
            if rng.random() < 0.5:
                table, agent = ReservationTable(n_agents), [None, *range(n_agents)][int(rng.integers(n_agents + 1))]
                for holder in range(n_agents):
                    if rng.random() < 0.7:
                        spot = int(rng.integers(n))
                        exact = now + drive[spot] if np.isfinite(drive[spot]) else now
                        table.place(holder, spot, float(rng.choice([exact, exact - 1.0, exact + 1.0])))
                seen["reservations"] += 1
            view = make_view(ctx, avail, now=now, t_claim=t_claim, reservations=table, agent_id=agent)
            dest = GeoPoint(float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.02, 0.02)))
            expected = oracle_replan(view, node, dest)
            before = calls["full vector"]
            if expected is None:
                with pytest.raises(NoPathError):
                    replan_route(view, node, dest)
                seen["no path"] += 1
                continue
            decision = replan_route(view, node, dest)
            best, ties, arrival = expected
            start = int(ctx.res_from_idx[best])
            assert decision.target_resource == best
            assert decision.action == (TakeResource(best) if start == node else TakeRoad(ctx.first_hop(node, start)))
            assert decision.expected_arrival == arrival
            seen[case] += 1
            seen["full vector" if calls["full vector"] > before else "free spots"] += 1
            seen["tie"] += ties > 1
    assert min(seen.values()) >= 5, seen


def test_replan_tie_between_a_free_spot_and_a_circling_wait_goes_to_the_smaller_index():
    """Occupied r0 costs 5 + 0 + 100 and free r1 costs 105 + 0, both exactly the least circling cost:
    the full vector's first argmin is r0, so the free spots alone must not decide."""
    doc = {
        "nodes": [{"id": "s", "lat": 0.0, "lon": 0.0}, {"id": "t", "lat": 0.0, "lon": 0.01}],
        "edges": [{"id": "e-st", "from": "s", "to": "t", "length_m": 500.0, "drive_time_s": 200.0},
                  {"id": "e-ts", "from": "t", "to": "s", "length_m": 500.0, "drive_time_s": 200.0}],
        "resources": [{"id": "r0", "edge": "e-st", "lat": 0.0, "lon": 0.005, "offset_s": 5.0},
                      {"id": "r1", "edge": "e-st", "lat": 0.0, "lon": 0.005, "offset_s": 105.0}],
    }
    graph, ctx = make_context(doc)
    view = make_view(ctx, [False, True], t_claim=np.array([100.0, 100.0]))
    assert view.least_claim == 105.0
    decision = replan_route(view, ctx.node_index["s"], GeoPoint(0.0, 0.005))
    assert decision.target_resource == ctx.res_index["r0"] == 0
    assert decision.action == TakeResource(0) and decision.expected_arrival == 5.0


def test_a_view_takes_the_runs_rates_and_t_claim():
    """A view derives no rule of its own: rates and t_claim are required, and only least_claim is computed."""
    assert [f.name for f in dataclasses.fields(PlanningView) if f.init] == [
        "ctx", "now", "avail", "rates", "t_claim", "reservations", "overlay", "agent_id"]
    graph, ctx = make_context(triangle_doc())
    with pytest.raises(TypeError):
        PlanningView(ctx, 0.0, np.ones(1, dtype=bool))


def test_sample_determinizations_certain_and_reserved():
    graph, ctx, dest = two_candidate_world()
    doc_offsets_zero = ctx.res_offset
    assert (doc_offsets_zero == 0).all()

    # from node a, rA is at drive 0: probability 1 when anchored available
    view = make_view(ctx, [True, True])
    dets = sample_determinizations(view, ctx.node_index["a"], 50, np.random.default_rng(1))
    assert all(d.available[ctx.res_index["rA"]] for d in dets)

    table = ReservationTable(2)
    table.place(1, ctx.res_index["rA"], t_arrival=-1.0)  # strictly earlier than any arrival
    view_r = make_view(ctx, [True, True], reservations=table, agent_id=0)
    dets = sample_determinizations(view_r, ctx.node_index["a"], 50, np.random.default_rng(2))
    assert not any(d.available[ctx.res_index["rA"]] for d in dets)


def test_sample_determinizations_binomial_concentration():
    graph, ctx, dest = two_candidate_world()
    params = CtmcParams(0.01, 0.01)
    view = make_view(ctx, [True, True], params=params, now=0.0)
    # arrival at rA from a is immediate; shift anchor far into the past via `now`
    # instead: query a long horizon by sampling from s (drive 40) has dt 40; too short.
    # Use the stationary trick: lam = mu and a large dt gives probability 1/2.
    dets = sample_determinizations(
        make_view(ctx, [True, True], params), ctx.node_index["a"], 10_000,
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
    d_occ = Determinization(available=np.array([False, False]))
    rid, cost = solve_determinization(view, ctx.node_index["s"], d_occ, dest)
    t_claim = float(view.t_claim[0])
    assert rid == "rB"
    assert cost == pytest.approx(70.0 + t_claim + 20.0, rel=1e-9)

    d_a = Determinization(available=np.array([True, False]))
    rid, cost = solve_determinization(view, ctx.node_index["s"], d_a, dest)
    assert rid == "rA" and cost == pytest.approx(100.0, rel=1e-9)


def test_solve_determinization_matches_enumeration():
    from parksearch.geo import walking_time

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
            street_start = ctx.node_index[graph.edges[r.edge_id].from_node]
            drive = ctx.drive_time(ctx.node_index[start], street_start) + r.offset_s
            cost = drive + walking_time(r.position, dest)
            if not avail[i]:
                cost += float(view.t_claim[i])
            if cost < best_cost:
                best_id, best_cost = rid, cost
        if not np.isfinite(best_cost):
            with pytest.raises(NoPathError):
                solve_determinization(view, ctx.node_index[start], det, dest)
            continue
        rid, cost = solve_determinization(view, ctx.node_index[start], det, dest)
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
    view = make_view(ctx, [True, True])
    rid, _ = solve_determinization(view, ctx.node_index["s"], Determinization(available=np.array([True, True])),
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
    decision = policy.decide(view, ctx.node_index["s"], np.random.default_rng(1))
    assert decision.action == TakeResource(ctx.res_index["rN"])
    assert decision.expected_arrival == pytest.approx(10.0)
    # one-step look-ahead of the only road action: 30 to drive, then the best
    # hindsight solution from `a` costs 60 via rN in every certain future
    walk = ctx.walk_vector(GeoPoint(0.0, 0.0))
    s, a = ctx.node_index["s"], ctx.node_index["a"]
    _, probs = planners._future_probabilities(view, ctx.drive_to_resources(s))
    plan = HindsightPlan(view.t_claim, ctx.drive_to_resources([a]) + walk)
    mins, _ = plan.solve(policy._drawn, policy._kernel, probs)
    assert 30.0 + mins.mean(axis=1)[0] == pytest.approx(90.0, rel=1e-6)
    rn = ctx.res_index["rN"]
    assert ctx.res_offset[rn] + walk[rn] == pytest.approx(30.0, rel=1e-9)  # the spot action's value


def test_hindsight_single_road_action():
    graph, ctx = hindsight_world()
    policy = HindsightPolicy(ctx, GeoPoint(0.0, 0.0))
    view = make_view(ctx, [True, False])  # near spot occupied: no terminal action at s
    decision = policy.decide(view, ctx.node_index["s"], np.random.default_rng(1))
    assert decision.action == TakeRoad(ctx.edge_ids.index("e-sa"))
    assert decision.target_resource is not None


def test_hindsight_deterministic_with_seed():
    graph, ctx = hindsight_world()
    view_args = ([True, True],)
    s = ctx.node_index["s"]
    d1 = HindsightPolicy(ctx, GeoPoint(0.0, 0.0)).decide(make_view(ctx, *view_args), s,
                                                         np.random.default_rng(7))
    d2 = HindsightPolicy(ctx, GeoPoint(0.0, 0.0)).decide(make_view(ctx, *view_args), s,
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
    assert ctx.edge_ids[policy.dest_edge] in ("e-xc", "e-cx")

    rng = np.random.default_rng(0)
    # before reaching the destination street: least-time hop toward it
    view = make_view(ctx, [True])
    decision = policy.decide(view, ctx.node_index["z"], rng)
    assert decision.action == TakeRoad(ctx.edge_ids.index("e-zc"))

    # once searching, an available spot on the randomly chosen street is taken
    policy2 = RandomPolicy(ctx, dest)
    policy2._searching = True
    took = 0
    for _ in range(200):
        d = policy2.decide(make_view(ctx, [True]), ctx.node_index["x"], rng)
        if isinstance(d.action, TakeResource):
            took += 1
            assert ctx.res_ids[d.action.resource] == "r"
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
        assert ctx.edge_ids[RandomPolicy(ctx, dest).dest_edge] == scalar_dest_edge(ctx, dest), dest


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
        d = policy.decide(view, ctx.node_index["c"], rng)
        counts[ctx.edge_ids[d.action.edge]] += 1
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


def test_planner_settings_take_numpy_scalars():
    settings = PlannerSettings(determinizations=np.int64(10), scope_horizon_s=np.float32(60.0),
                               adaption_visit_decay=np.float64(0.5))
    assert settings == PlannerSettings(determinizations=10, scope_horizon_s=60.0, adaption_visit_decay=0.5)
    assert type(settings.determinizations) is int and type(settings.scope_horizon_s) is float
    for bad in (np.bool_(True), np.float64(10.0), np.int64(0)):
        with pytest.raises(ValueError, match="determinizations"):
            PlannerSettings(determinizations=bad)


def test_heuristic_policy_thresholds():
    graph, ctx = crossroads_world()
    dest = GeoPoint(0.0005, 0.0)
    settings = PlannerSettings(heuristic_far_radius_m=500.0, heuristic_accept_walk_s=60.0)

    # far away (about 111 m per milli-degree: node z is ~167 m, x is ~55 m from dest)
    far_dest = GeoPoint(-0.004, 0.0)
    far_policy = HeuristicPolicy(ctx, far_dest, settings)
    d = far_policy.decide(make_view(ctx, [True]), ctx.node_index["x"], np.random.default_rng(0))
    assert isinstance(d.action, TakeRoad)  # outside the radius nothing is accepted

    policy = HeuristicPolicy(ctx, dest, settings)
    d = policy.decide(make_view(ctx, [True]), ctx.node_index["x"], np.random.default_rng(0))
    assert d.action == TakeResource(ctx.res_index["r"])  # walk 0 s <= threshold 60 s

    assert policy.accept_threshold(600.0) >= policy.accept_threshold(0.0)
    assert policy.accept_threshold(600.0) == pytest.approx(160.0)  # 60 base + 10 min * 10 s


def test_heuristic_far_mask_equals_the_kernel_over_every_node():
    # the policy runs the kernel only on the latitude band around the destination; the mask must still be
    # the full call's, radius 0 and destinations on a node (distance exactly 0) included
    graph, ctx = make_context(build_grid_graph_doc(12, 12, spacing_m=150.0, n_resources=20, seed=4))
    rng = np.random.default_rng(8)
    deg = 150.0 / 111_194.93
    dests = [GeoPoint(float(rng.uniform(-1, 12)) * deg, float(rng.uniform(-1, 12)) * deg) for _ in range(30)]
    dests += [GeoPoint(float(ctx.node_lat[i]), float(ctx.node_lon[i])) for i in (0, 13, 143)]
    for dest in dests:
        full = great_circle_m_many(ctx.node_lat, ctx.node_lon, dest)
        for radius in (0.0, 0.5, 150.0, 500.0, 1e4, float(np.sort(full)[5])):
            policy = HeuristicPolicy(ctx, dest, PlannerSettings(heuristic_far_radius_m=radius))
            assert policy._far.tolist() == (full > radius).tolist(), (dest, radius)


def test_decisions_are_slotted_records_equal_by_type_and_value():
    assert TakeRoad(3) != TakeResource(3)
    assert TakeRoad(3) == TakeRoad(3) and TakeRoad(3) != TakeRoad(4)
    assert RouteDecision(TakeResource(2), 2, 10.5) == RouteDecision(TakeResource(2), 2, 10.5, True)
    assert RouteDecision(TakeResource(2), 2, 10.5) != RouteDecision(TakeResource(2), 2, 10.5, False)
    for record in (TakeRoad(3), TakeResource(3), RouteDecision(TakeRoad(3))):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            hash(record)


def test_policies_are_pure_functions_of_inputs():
    graph, ctx, dest = two_candidate_world()
    for kind in ("random", "heuristic", "rpl", "hs"):
        a = make_policy(kind, ctx, dest, PlannerSettings(determinizations=20))
        b = make_policy(kind, ctx, dest, PlannerSettings(determinizations=20))
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        for node in (ctx.node_index[n] for n in ("s", "a", "s", "b")):
            da = a.decide(make_view(ctx, [True, True]), node, rng_a)
            db = b.decide(make_view(ctx, [True, True]), node, rng_b)
            assert da == db, kind


def test_context_rejects_drive_times_of_the_wrong_shape():
    graph, ctx = make_context(triangle_doc())
    dense = dense_travel_times(graph)
    for times in (dense[:2, :2], dense[:, :2], dense.ravel()):
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
        for nid, streets in zip(ctx.node_ids, ctx.out_edges):
            want = sorted(e.id for e in graph.edges.values() if e.from_node == nid)
            assert [ctx.edge_ids[s] for s in streets] == want
        assert dict(zip(ctx.node_ids, map(tuple, ctx.adjacent_res))) == sorted_adjacent_spots(graph, ctx)


def oracle_first_hops(graph, to_node):
    """Scalar oracle: per node, the id of the out-street of least drive time plus the Bellman-Ford time
    from its end to ``to_node``, the smallest id among exact ties, or None where no street leads there."""
    dist = {nid: bellman_ford_times(graph, nid)[to_node] for nid in graph.nodes}
    best = {}
    for e in graph.edges.values():
        cost = e.drive_time_s + dist[e.to_node]
        if cost < np.inf and (e.from_node not in best or (cost, e.id) < best[e.from_node]):
            best[e.from_node] = (cost, e.id)
    return {nid: best[nid][1] if nid in best else None for nid in graph.nodes}


@pytest.mark.parametrize("world", ["random", "one_way_grid"])
def test_first_hop_matches_a_bellman_ford_oracle(world):
    """Integer weights and uniform grid streets make exactly tied paths common; each must go to the
    smallest street id, and a node with no way to the target must raise NoPathError."""
    rng = np.random.default_rng(404)
    if world == "random":
        docs = [random_graph_doc(rng, n_nodes=9, edge_prob=0.3, n_resources=0) for _ in range(12)]
        for doc in docs:
            for e in doc["edges"]:
                e["drive_time_s"] = float(rng.integers(1, 5))  # few distinct weights: many tied paths
    else:
        docs = [build_grid_graph_doc(5, 6, n_resources=10, seed=s, one_way=True) for s in (1, 2)]
    checked = ties = no_path = 0
    for doc in docs:
        graph, ctx = make_context(doc)

        def first_hop(u, v):
            return ctx.edge_ids[ctx.first_hop(ctx.node_index[u], ctx.node_index[v])]
        for v in graph.nodes:
            want = oracle_first_hops(graph, v)
            for u in graph.nodes:
                if u == v:
                    with pytest.raises(ValueError):
                        first_hop(u, v)
                elif want[u] is None:
                    with pytest.raises(NoPathError):
                        first_hop(u, v)
                    no_path += 1
                else:
                    assert first_hop(u, v) == want[u], (u, v)
                    out = [e for e in graph.edges.values() if e.from_node == u]
                    costs = sorted(e.drive_time_s + ctx.drive_time(ctx.node_index[e.to_node], ctx.node_index[v])
                                   for e in out)
                    ties += len(costs) > 1 and costs[0] == costs[1]
                    checked += 1
    assert checked > 500 and ties > 50
    assert no_path if world == "random" else not no_path  # the one-way grid is strongly connected


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
                decision = policy.decide(view, ctx.node_index[node], rng)
            except NoPathError:
                continue
            if isinstance(decision.action, TakeRoad):
                assert graph.edges[ctx.edge_ids[decision.action.edge]].from_node == node
            else:
                edge = graph.edges[ctx.resources[decision.action.resource].edge_id]
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
            table = ReservationTable(2)  # agent 0 plans, agent 1 holds a reservation
            table.place(1, int(rng.integers(ctx.n_resources)), float(rng.uniform(0, 500)))
            node, now = str(rng.choice(list(graph.nodes))), float(rng.uniform(0, 1000))
            for _ in range(6):
                view = make_view(ctx, avail, params=params, now=now, reservations=table, agent_id=0)
                try:
                    decision = policy.decide(view, ctx.node_index[node], rng)
                except NoPathError:
                    break
                road = isinstance(decision.action, TakeRoad)
                edge = graph.edges[ctx.edge_ids[decision.action.edge]] if road else None
                ridx = decision.target_resource
                if ridx is not None:
                    start, at = ((edge.to_node, now + edge.drive_time_s)
                                 if edge is not None and isinstance(policy, HindsightPolicy) else (node, now))
                    assert decision.expected_arrival == at + ctx.drive_to_resources(ctx.node_index[start])[ridx], kind
                    assert type(decision.expected_arrival) is float, kind  # not a numpy scalar
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
        rows = ctx.drive_to_resources([ctx.node_index[n] for n in nodes])
        assert rows.shape == (len(nodes), ctx.n_resources)
        assert rows.flags.c_contiguous
        unreachable += int(np.isinf(rows).any())
        repeated += len(set(nodes)) < len(nodes)
        for k, node in enumerate(nodes):
            assert np.array_equal(rows[k], ctx.drive_to_resources(ctx.node_index[node]))
            checked += 1
    assert checked > 40 and unreachable and repeated
