import math
from typing import NamedTuple

import numpy as np
import pytest

from parksearch.availability import AdaptionOverlay, CtmcParams
from parksearch.fleet import ReservationTable, _edge_jump_weight, adapt_probabilities
from parksearch.planners import PlannerSettings
from parksearch.scenario import build_grid_graph_doc

from adaption_oracle import WalkPath, create_adaptions, oracle_adapt_probabilities
from conftest import make_context, make_view, random_graph_doc
from drive_time_oracle import dense_travel_times
from ctmc_oracle import ResourceBelief, ResourceState, availability_probability



class Held(NamedTuple):
    """One reservation in a test's own model of the table: agent and spot indices and the arrival."""

    spot: int
    agent: int
    t_arrival: float


def effective_availability(table, spot, querying_agent, query_arrival, currently_available, n_spots=4):
    """Availability as seen by a fleet agent expecting to arrive at ``query_arrival``; the full query
    over ``n_spots`` spots, the reserved-spots query and the one-spot query must agree."""
    blocked = table.spot_blocked(querying_agent, spot, query_arrival)
    assert table.blocked(querying_agent, np.full(n_spots, query_arrival))[spot] == blocked
    spots = table.blocked_spots(querying_agent, lambda spots: np.full(len(spots), query_arrival))
    assert (spot in spots.tolist()) == blocked
    return currently_available and not blocked


def reservation_blocks(res, querying_agent, query_arrival):
    """Scalar oracle: whether one reservation makes its resource look occupied to a query."""
    if res.agent == querying_agent:
        return False
    if res.t_arrival < query_arrival:
        return True
    return res.t_arrival == query_arrival and (querying_agent is None or res.agent < querying_agent)


def assert_table_holds(table, held, n_agents):
    """The table's per-agent arrays hold exactly the model's reservations."""
    assert table.spot.tolist() == [held[a].spot if a in held else -1 for a in range(n_agents)]
    assert [float(table.arrival[a]) for a in sorted(held)] == [held[a].t_arrival for a in sorted(held)]
    assert len(table) == len(held)


def test_blocked_matches_scalar_oracle():
    rng = np.random.default_rng(515)
    n_agents, n_spots = 8, 6
    seen = {"tie": 0, "own": 0, "anonymous": 0, "cancelled": 0, "outside": 0, "replaced": 0}

    for _ in range(300):
        table = ReservationTable(n_agents)
        held: dict[int, Held] = {}  # the test's own model of the active reservations
        for _ in range(int(rng.integers(1, 12))):
            agent = int(rng.integers(n_agents))
            if rng.random() < 0.25:
                table.cancel(agent)
                seen["cancelled"] += held.pop(agent, None) is not None
            else:
                res = Held(int(rng.integers(n_spots)), agent, float(rng.integers(0, 4)))
                table.place(res.agent, res.spot, res.t_arrival)
                old = held.pop(agent, None)
                seen["replaced"] += old is not None and old.spot != res.spot
                held[agent] = res
            assert_table_holds(table, held, n_agents)
        seen["outside"] += len({res.spot for res in held.values()}) < n_spots  # spots nobody reserved
        arrivals = rng.integers(0, 4, size=n_spots).astype(float)
        for agent in [None, *range(n_agents)]:
            seen["anonymous"] += agent is None
            seen["own"] += agent in held
            expected = np.array([any(reservation_blocks(res, agent, arrivals[i])
                                     for res in held.values() if res.spot == i)
                                 for i in range(n_spots)], dtype=bool)
            seen["tie"] += sum(res.t_arrival == arrivals[res.spot] for res in held.values())
            assert np.array_equal(table.blocked(agent, arrivals), expected)
            asked = []
            spots = table.blocked_spots(agent, lambda s: asked.append(s.tolist()) or arrivals[s]).tolist()
            assert sorted(set(spots)) == np.flatnonzero(expected).tolist()
            assert asked == [[res.spot for _, res in sorted(held.items())]]  # priced only at reserved spots
            for i in range(n_spots):
                assert table.spot_blocked(agent, i, arrivals[i]) == expected[i]
    assert min(seen.values()) > 0, seen


def test_reservation_table_basics():
    table = ReservationTable(3)
    table.place(1, 1, 100.0)
    assert (table.spot[1], table.arrival[1]) == (1, 100.0)
    assert len(table) == 1

    table.place(1, 2, 150.0)  # re-targeting replaces the old entry
    assert (table.spot[1], table.arrival[1]) == (2, 150.0)
    assert not (table.spot == 1).any()
    assert len(table) == 1

    table.place(2, 2, 200.0)  # several agents may reserve one resource
    assert np.flatnonzero(table.spot == 2).tolist() == [1, 2]

    table.cancel(1)
    assert table.spot[1] == -1
    table.cancel(1)  # idempotent
    assert len(table) == 1


def test_effective_availability_semantics():
    me, other = 0, 1
    table = ReservationTable(2)
    assert effective_availability(table, 0, me, 150.0, currently_available=False) is False
    assert effective_availability(table, 0, me, 150.0, currently_available=True) is True

    table.place(other, 0, 100.0)
    assert effective_availability(table, 0, me, 150.0, True) is False  # they arrive first
    table.place(other, 0, 200.0)
    assert effective_availability(table, 0, me, 150.0, True) is True  # I arrive first

    # own reservation never blocks
    table.place(me, 0, 100.0)
    assert effective_availability(table, 0, me, 150.0, True) is True


def test_equal_arrival_tie_breaks_by_agent_id():
    # agent indices follow id order, so the smaller index is the smaller id
    table = ReservationTable(3)
    table.place(0, 0, 100.0)
    assert effective_availability(table, 0, 1, 100.0, True) is False  # agent 0 keeps the claim
    table.place(2, 0, 100.0)
    assert effective_availability(table, 0, 1, 100.0, True) is False  # agent 0 still blocks
    table.cancel(0)
    assert effective_availability(table, 0, 1, 100.0, True) is True  # agent 2 > 1 loses ties


def test_effective_availability_monotone_in_reservations():
    rng = np.random.default_rng(6)
    for _ in range(200):
        table = ReservationTable(6)
        probes = [(0, i, float(rng.uniform(0, 100))) for i in range(5)]
        before = [effective_availability(table, r, q, t, True) for r, q, t in probes]
        table.place(5, 0, float(rng.uniform(0, 100)))
        after = [effective_availability(table, r, q, t, True) for r, q, t in probes]
        for b, a in zip(before, after):
            assert not (b is False and a is True)


def test_per_agent_uniqueness_random_ops():
    rng = np.random.default_rng(9)
    n_agents, n_spots = 6, 4
    table = ReservationTable(n_agents)
    held: dict[int, Held] = {}
    for _ in range(2000):
        agent = int(rng.integers(n_agents))
        if rng.random() < 0.3:
            table.cancel(agent)
            held.pop(agent, None)
        else:
            res = held[agent] = Held(int(rng.integers(n_spots)), agent, float(rng.uniform(0, 1000)))
            table.place(agent, res.spot, res.t_arrival)
        assert_table_holds(table, held, n_agents)


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
    view = make_view(ctx, [True, False, True], params)

    e12, n0, n2 = ctx.edge_ids.index("e12"), ctx.node_index["n0"], ctx.node_index["n2"]
    # edge e12 ends at n2; drive n2 -> n0 is 300 s; with a 600 s isochrone delta = 0.5
    w = _edge_jump_weight(view, e12, t_acc=dt, visited=set(),
                          dest_node=n0, isochrone_s=600.0, visit_decay=0.95)
    assert w == pytest.approx(0.5 * 0.2, abs=1e-9)

    # visited edges decay by 0.95; a certainly-available resource gives the full gamma
    w_visited = _edge_jump_weight(view, e12, dt, {e12}, n0, 600.0, 0.95)
    assert w_visited == pytest.approx(0.95 * 0.5 * 0.2, abs=1e-9)

    view_sure = make_view(ctx, [True, True, True])
    w_sure = _edge_jump_weight(view_sure, e12, 100.0, set(), n0, 600.0, 0.95)
    delta = min(1.0, ctx.drive_time(n2, n0) / 600.0)
    assert w_sure == pytest.approx(delta * 1.0, rel=1e-6)


def test_create_adaptions_hand_arithmetic():
    graph, ctx = linear_walk_world()
    overlay = AdaptionOverlay()
    e01, e12 = ctx.edge_ids.index("e01"), ctx.edge_ids.index("e12")
    paths = [
        WalkPath((e12,), 0.2, 500.0, e12),
        WalkPath((e12,), 0.4, 700.0, e12),
        WalkPath((e01, e12), 0.6, 900.0, e12),
    ]
    create_adaptions(paths, 0, ctx, overlay)
    # e12 holds one resource (rx): delta = mean(0.2, 0.4, 0.6) / 1
    assert len(overlay) == 1
    assert ctx.res_ids[overlay.spot[0]] == "rx"
    assert overlay.delta[0] == pytest.approx(0.4)
    assert overlay.activation[0] == pytest.approx(700.0)


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
    graph, ctx = make_context(doc)
    overlay = AdaptionOverlay()
    e1, e2 = ctx.edge_ids.index("e1"), ctx.edge_ids.index("e2")
    create_adaptions(
        [WalkPath((e1,), 0.3, 100.0, e1), WalkPath((e2,), 0.5, 200.0, e2)],
        0, ctx, overlay,
    )
    by_resource = {ctx.res_ids[s]: k for k, s in enumerate(overlay.spot.tolist())}
    assert overlay.delta[by_resource["p"]] == pytest.approx(0.15)  # 0.3 split across p and q
    assert overlay.delta[by_resource["q"]] == pytest.approx(0.15)
    assert overlay.delta[by_resource["z"]] == pytest.approx(0.5)
    assert overlay.activation[by_resource["p"]] == 100.0
    assert overlay.activation[by_resource["z"]] == 200.0

    zero = AdaptionOverlay()
    create_adaptions([WalkPath((), 0.0, 50.0, e1)], 0, ctx, zero)
    # a group with zero expected mass creates zero-valued deltas
    assert zero and all(d == 0.0 for d in zero.delta)


def test_adapt_probabilities_without_steps_spreads_the_stay_over_the_target_street():
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
    graph, ctx = make_context(doc)
    overlay = AdaptionOverlay()
    view = make_view(ctx, [False, True, False], CtmcParams.from_mean_times(300.0, 900.0),
                     overlay=overlay, agent_id=2)
    target, t_arrival = ctx.res_index["p"], 40.0
    p_initial = 1.0 - float(view.availability(t_arrival, [target])[0])
    settings = PlannerSettings(adaption_samples=7, adaption_isochrone_s=300.0, adaption_max_steps=0)
    adapt_probabilities(view, target, t_arrival, 2, settings, np.random.default_rng(5))
    # every walk stays: the target street's two spots share the mass, from the arrival time
    assert overlay.spot.tolist() == ctx.street_spots[ctx.edge_ids.index("e1")].tolist()
    assert overlay.delta.tolist() == [p_initial / 2] * 2
    assert overlay.activation.tolist() == [t_arrival] * 2
    assert overlay.owner.tolist() == [2, 2]


class ZeroDraws:
    """A generator stub whose every uniform draw is exactly 0.0."""

    def random(self):
        return 0.0


def test_adapt_probabilities_walks_ending_on_a_street_without_spots_add_nothing():
    """A draw of 0.0 takes the first candidate even at zero weight, here a street without spots, so every
    walk ends there and the call adds no entries."""
    nodes = [{"id": n, "lat": 0.0, "lon": 0.001 * i} for i, n in enumerate("abcd")]
    edges = [
        {"id": "t", "from": "a", "to": "b", "length_m": 100.0, "drive_time_s": 10.0},
        {"id": "u-bare", "from": "b", "to": "c", "length_m": 100.0, "drive_time_s": 10.0},
        {"id": "v-spots", "from": "b", "to": "d", "length_m": 100.0, "drive_time_s": 10.0},
        {"id": "w-ca", "from": "c", "to": "a", "length_m": 100.0, "drive_time_s": 10.0},
        {"id": "x-da", "from": "d", "to": "a", "length_m": 100.0, "drive_time_s": 10.0},
    ]
    resources = [
        {"id": "r", "edge": "t", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0},
        {"id": "s", "edge": "v-spots", "lat": 0.0, "lon": 0.0015, "offset_s": 5.0},
    ]
    graph, ctx = make_context({"nodes": nodes, "edges": edges, "resources": resources})
    assert [ctx.edge_ids[e] for e in ctx.out_edges[ctx.node_index["b"]]] == ["u-bare", "v-spots"]
    settings = PlannerSettings(adaption_samples=5, adaption_isochrone_s=300.0, adaption_max_steps=1)
    overlay, oracle_overlay = AdaptionOverlay(), AdaptionOverlay()
    views = [make_view(ctx, [False, True], overlay=o, agent_id=0) for o in (overlay, oracle_overlay)]
    paths = oracle_adapt_probabilities(views[1], ctx.res_index["r"], 20.0, 0, settings, ZeroDraws())
    assert [ctx.edge_ids[p.final_edge] for p in paths] == ["u-bare"] * 5
    adapt_probabilities(views[0], ctx.res_index["r"], 20.0, 0, settings, ZeroDraws())
    assert len(overlay) == 0
    for column in ("spot", "activation", "delta", "owner"):
        assert getattr(overlay, column).tobytes() == getattr(oracle_overlay, column).tobytes(), column


def test_adapt_probabilities_zero_when_target_certainly_available():
    graph, ctx = linear_walk_world()
    overlay = AdaptionOverlay()
    view = make_view(ctx, [True, True, True], overlay=overlay, agent_id=0)
    settings = PlannerSettings(adaption_samples=20, adaption_isochrone_s=600.0)
    adapt_probabilities(view, ctx.res_index["rt"], 0.0, 0, settings, np.random.default_rng(0))
    assert all(d == pytest.approx(0.0, abs=1e-12) for d in overlay.delta)


def test_adapt_probabilities_walk_invariants():
    rng = np.random.default_rng(44)
    graph, ctx = linear_walk_world()
    params = CtmcParams.from_mean_times(600.0, 1800.0)
    overlay = AdaptionOverlay()
    view = make_view(ctx, [False, False, True], params, overlay=overlay, agent_id=0)
    t_arrival = 250.0
    target = graph.resources["rt"]
    p_initial = 1.0 - availability_probability(
        ResourceBelief("rt", ResourceState.OCCUPIED, 0.0, params), t_arrival
    )
    adapt_probabilities(view, ctx.res_index["rt"], t_arrival, 0,
                        PlannerSettings(adaption_samples=40, adaption_isochrone_s=600.0), rng)
    iso = ctx.isochrone(ctx.node_index[graph.edges[target.edge_id].from_node], 600.0)
    for spot, activation, delta in zip(overlay.spot.tolist(), overlay.activation.tolist(), overlay.delta.tolist()):
        # each walk multiplies its survival mass by weights <= 1
        assert delta <= p_initial + 1e-12
        assert activation >= t_arrival - 1e-9
        street = ctx.resources[spot].edge_id
        assert ctx.node_index[graph.edges[street].to_node] in iso or street == target.edge_id


def test_adapt_probabilities_degenerate_target():
    """A target street that ends in a dead end offers no candidate street, so every walk stays: the
    target street gets the stay mass of all of them, and no draw is made."""
    doc = {
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e1", "from": "a", "to": "b", "length_m": 100.0, "drive_time_s": 10.0}],
        "resources": [{"id": "r", "edge": "e1", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0}],
    }
    graph, ctx = make_context(doc)
    view = make_view(ctx, [False], overlay=AdaptionOverlay(), agent_id=0)
    rng = np.random.default_rng(1)
    adapt_probabilities(view, 0, 10.0, 0, PlannerSettings(adaption_samples=5, adaption_isochrone_s=300.0), rng)
    p_initial = 1.0 - float(view.availability(10.0, [0])[0])
    p_sum = 0.0
    for _ in range(5):
        p_sum += p_initial
    assert p_initial > 0.99
    assert view.overlay.spot.tolist() == [0]
    assert view.overlay.activation.tolist() == [10.0]
    assert view.overlay.delta.tolist() == [p_sum / 5]
    assert view.overlay.owner.tolist() == [0]
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_reverse_adaptions_round_trip_exact():
    rng = np.random.default_rng(17)
    graph, ctx = linear_walk_world()
    params = CtmcParams.from_mean_times(300.0, 900.0)
    overlay = AdaptionOverlay()
    spots = range(ctx.n_resources)
    keeper, walker = 0, 1
    beliefs = {i: ResourceBelief(i, ResourceState.AVAILABLE, 0.0, params) for i in spots}
    probes = [(i, float(rng.uniform(0, 2000))) for i in spots for _ in range(4)]

    e12 = ctx.edge_ids.index("e12")
    create_adaptions([WalkPath((e12,), 0.25, 400.0, e12)], keeper, ctx, overlay)
    before = [availability_probability(beliefs[i], t, overlay) for i, t in probes]

    view = make_view(ctx, [False, True, False], params, overlay=overlay, agent_id=walker)
    adapt_probabilities(view, ctx.res_index["rt"], 300.0, walker,
                        PlannerSettings(adaption_samples=25, adaption_isochrone_s=600.0), rng)
    overlay.withdraw(walker)
    after = [availability_probability(beliefs[i], t, overlay) for i, t in probes]
    assert after == before  # exact restoration

    overlay.withdraw(walker)  # a second withdrawal changes nothing
    assert [availability_probability(beliefs[i], t, overlay) for i, t in probes] == before

    # keeper's entries survive interleaved reversal
    assert all(owner == keeper for owner in overlay.owner.tolist())
    overlay.withdraw(keeper)
    assert len(overlay) == 0


def _walk_worlds(rng):
    """A chain of two-way streets, one street into a dead end, two-way and one-way grids with parking on
    some streets, and random directed graphs."""
    yield linear_walk_world()
    yield make_context({  # every target street ends in a dead end
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 0.0, "lon": 0.001}],
        "edges": [{"id": "e1", "from": "a", "to": "b", "length_m": 100.0, "drive_time_s": 10.0}],
        "resources": [{"id": "r", "edge": "e1", "lat": 0.0, "lon": 0.0005, "offset_s": 5.0}],
    })
    yield make_context(build_grid_graph_doc(3, 3, spacing_m=200.0, drive_time_s=20.0, n_resources=30,
                                            seed=int(rng.integers(1 << 30))))
    yield make_context(build_grid_graph_doc(3, 3, spacing_m=200.0, drive_time_s=20.0, n_resources=12,
                                            seed=int(rng.integers(1 << 30)), resource_streets=5))
    yield make_context(build_grid_graph_doc(4, 4, spacing_m=200.0, drive_time_s=20.0, n_resources=40,
                                            seed=int(rng.integers(1 << 30)), one_way=True))
    for _ in range(3):
        yield make_context(random_graph_doc(rng, n_nodes=7, edge_prob=0.3, n_resources=10))


def test_adapt_probabilities_matches_walk_oracle():
    """The shared first step leaves every overlay entry and the random stream as the walk-by-walk loop
    does, bit for bit, through a run of calls that withdraw and re-add owners: with no steps allowed,
    with one, on start nodes without candidates inside the isochrone, with zero total weight, and in
    small isochrones where walks revisit streets."""
    rng = np.random.default_rng(1919)
    seen = {"no steps allowed": 0, "one step allowed": 0, "no candidates": 0, "zero total weight": 0,
            "revisit": 0, "stay": 0, "move": 0, "step limit reached": 0, "dead end": 0}
    for graph, ctx in _walk_worlds(rng):
        n = ctx.n_resources
        if n == 0:
            continue
        street_s = float(np.median([e.drive_time_s for e in graph.edges.values()]))
        overlay, oracle_overlay = AdaptionOverlay(), AdaptionOverlay()
        dense = dense_travel_times(graph)
        for call in range(40):
            # mostly occupied streets stop most walks at once; mostly free ones let them wander
            free = rng.random() < 0.6
            params = CtmcParams.from_mean_times(3000.0, 60.0) if free else CtmcParams.from_mean_times(120.0, 2000.0)
            avail = rng.random(n) < (0.95 if free else 0.4)
            agent = int(rng.integers(3))
            target = int(rng.integers(n))
            max_steps = int(rng.choice([0, 1, 2, 1000, 1000]))
            settings = PlannerSettings(adaption_samples=int(rng.choice([1, 5, 30])),
                                       adaption_isochrone_s=street_s * float(rng.choice([0.05, 1.25, 3.0, 3.0, 15.0])),
                                       adaption_visit_decay=float(rng.choice([0.95, 0.5])),
                                       adaption_max_steps=max_steps)
            now, t_arrival = 10.0 * call, 10.0 * call + float(rng.uniform(0, 200))
            for o in (overlay, oracle_overlay):
                o.withdraw(agent)
                if call % 10 == 3:  # another owner's mass clamps every availability to 0 for one call
                    o.add(np.arange(n), now, 1.0, 9)
                if call % 10 == 4:
                    o.withdraw(9)
            views = [make_view(ctx, avail, params, now, overlay=o, agent_id=agent) for o in (overlay, oracle_overlay)]
            seed = int(rng.integers(1 << 30))
            walk_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # a far destination keeps every street's distance factor at 1, so free walks wander
            edge = graph.edges[ctx.resources[target].edge_id]
            reach = dense[ctx.node_index[edge.to_node]]
            far = int(np.argmax(np.where(np.isfinite(reach), reach, -1.0)))
            dest = ((far if free else ctx.node_index[str(rng.choice(list(graph.nodes)))]) if rng.random() < 0.75
                    else None)
            paths = oracle_adapt_probabilities(views[1], target, t_arrival, agent, settings, oracle_rng, dest)
            adapt_probabilities(views[0], target, t_arrival, agent, settings, walk_rng, dest)
            for column in ("spot", "activation", "delta", "owner"):
                assert getattr(overlay, column).tobytes() == getattr(oracle_overlay, column).tobytes(), column
            assert walk_rng.bit_generator.state == oracle_rng.bit_generator.state

            iso = ctx.isochrone(ctx.node_index[edge.from_node], settings.adaption_isochrone_s)
            cands = [e for e in ctx.out_edges[ctx.node_index[edge.to_node]] if ctx.edge_to[e] in iso]
            drew = oracle_rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
            seen["no steps allowed"] += max_steps == 0
            seen["dead end"] += not ctx.out_edges[ctx.node_index[edge.to_node]]
            seen["one step allowed"] += max_steps == 1 and drew
            seen["no candidates"] += max_steps > 0 and not cands
            seen["zero total weight"] += max_steps > 0 and bool(cands) and not drew
            seen["revisit"] += any(len(set(p.edges)) < len(p.edges) for p in paths)
            seen["stay"] += any(not p.edges for p in paths) and drew
            seen["move"] += any(p.edges for p in paths)
            seen["step limit reached"] += any(0 < len(p.edges) == max_steps for p in paths)
    assert min(seen.values()) > 0, seen
