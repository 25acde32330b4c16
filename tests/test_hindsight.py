"""The first-free hindsight solve against the full (futures x resources) cost matrix.

``full_costs`` and ``oracle_decide`` are the reference: they build every
future's cost of every resource, ``base + claim_wait(uniforms < probs)``, and
take its minimum and first argmin. ``FutureMinima`` takes most futures' minimum
from the first available resource in (base, index) order among a few of each
row's cheapest resources, so these tests require bit-equal minima, equal
argmins and equal decisions, on worlds with fewer and with more resources than
the pruning cut-off. The kernel and ``HindsightPolicy._uniforms`` hold uniforms
as (resources, futures); the oracles read them transposed.
"""

from collections import Counter

import numpy as np
import pytest

from parksearch import planners
from parksearch.availability import CtmcParams
from parksearch.errors import NoPathError
from parksearch.fleet import ReservationTable
from parksearch.geo import GeoPoint
from parksearch.planners import (
    FutureMinima,
    HindsightPolicy,
    PlannerSettings,
    PlanningView,
    RouteDecision,
    TakeResource,
    TakeRoad,
    modal_choice,
)
from parksearch.scenario import build_grid_graph_doc

from conftest import make_context

K = planners.PRUNE_COLUMNS
DEFAULT = CtmcParams.from_mean_times(120.0, 2091.0)


def full_costs(view, base, uniforms, probs):
    """The full (rows, futures, resources) cost matrix."""
    wait = view.claim_wait(uniforms < probs)
    return np.stack([row + wait for row in base])


def oracle_decide(policy, view, node):
    """``HindsightPolicy.decide`` with one full cost matrix per out-edge; call it after the
    policy has drawn its uniforms."""
    ctx = view.ctx
    walk = ctx.walk_vector(policy.destination)
    drive_here = ctx.drive_to_resources(node)
    forced, probs = planners._future_probabilities(view, drive_here)
    wait = view.claim_wait(policy._uniforms.T < probs)
    candidates = []
    for ridx in ctx.adjacent_res[node]:
        if view.avail[ridx] and not forced[ridx]:
            rid = ctx.res_ids[ridx]
            candidates.append((float(ctx.res_offset[ridx] + walk[ridx]), 0, rid, TakeResource(rid), None))
    for edge in ctx.out_edges[node]:
        base = ctx.drive_to_resources(edge.to_node) + walk
        if policy.scope_horizon_s is not None:
            base = np.where(drive_here > policy.scope_horizon_s, np.inf, base)
        costs = base + wait
        candidates.append((float(edge.drive_time_s + costs.min(axis=1).mean()), 1, edge.id,
                           TakeRoad(edge.id), costs))
    candidates.sort(key=lambda c: c[:3])
    value, _, _, action, costs = candidates[0]
    if not np.isfinite(value):
        raise NoPathError(f"no resource reachable from {node!r}")
    if isinstance(action, TakeResource):
        ridx = ctx.res_index[action.resource]
        return RouteDecision(action, action.resource, float(view.now + ctx.res_offset[ridx])), None
    modal = modal_choice(costs.argmin(axis=1), ctx.n_resources)
    edge = ctx.graph.edges[action.edge]
    arrival = (view.now + edge.drive_time_s) + (ctx.M[ctx.node_index[edge.to_node], ctx.res_from_idx[modal]]
                                                 + ctx.res_offset[modal])
    return RouteDecision(action, ctx.res_ids[modal], float(arrival)), modal


_CONTEXTS = {}


def _context(n_res):
    if n_res not in _CONTEXTS:
        _CONTEXTS[n_res] = make_context(build_grid_graph_doc(4, 4, n_resources=n_res, seed=n_res))[1]
    return _CONTEXTS[n_res]


def _kernel_case(rng, n_res):
    """Random base, (futures, resources) uniforms, probabilities and waits, with the edge cases planted."""
    ctx = _context(n_res)
    n_rows = int(rng.integers(1, 5))
    n = int(rng.choice([1, 2, 10, 100]))
    # bases within a factor of two of each other, so base differences are exact
    base = 100.0 + rng.integers(0, 80 * 64, size=(n_rows, n_res)) / 64.0 + rng.random((n_rows, n_res)) * 1e-3
    t_claim = rng.uniform(100.0, 400.0, n_res)  # every occupied spot costs more than any base
    probs = rng.uniform(0.0, 0.9, n_res)
    uniforms = rng.random((n, n_res))
    dup = rng.integers(n_res, size=(2, max(1, n_res // 10)))
    base[:, dup[0]] = base[:, dup[1]]  # equal bases, within and across rows
    if rng.random() < 0.5:
        base[rng.random(base.shape) < rng.choice([0.05, 0.95])] = np.inf  # unreachable or out of scope
    if rng.random() < 0.2:
        base[int(rng.integers(n_rows))] = np.inf
    if rng.random() < 0.5:
        # Free columns sharing a row's cheapest base: the first in index order is the argmin.
        e, f = int(rng.integers(n_rows)), int(rng.integers(n))
        group = rng.choice(n_res, size=min(n_res, 24), replace=False)
        base[e, group] = base[e].min() if np.isfinite(base[e]).any() else 100.0
        uniforms[f, group] = 0.0
        probs[group] = np.maximum(probs[group], 0.5)
    probs[rng.random(n_res) < 0.2] = 0.0  # reserved
    if rng.random() < 0.2:
        probs[:] = 0.0
    t_claim[rng.random(n_res) < 0.02] = np.inf  # a spot that never frees within a round trip

    # Plant a future whose minimum over a row's cheapest columns equals the cheapest other
    # base, reached through a later column's circling wait: c_lo ties with c_hi + t_claim[c_hi].
    e, f = int(rng.integers(n_rows)), int(rng.integers(n))
    order = np.argsort(base[e], kind="stable")
    rank = min(K, n_res - 1) if rng.random() < 0.7 else int(rng.integers(n_res))
    c_lo = int(order[rank])
    cheaper = order[:rank][order[:rank] > c_lo]
    if cheaper.size and np.isfinite(base[e, c_lo]) and np.isfinite(t_claim[cheaper]).all():
        c_hi = int(cheaper[0])
        if base[e, c_hi] < base[e, c_lo]:
            t_claim[c_hi] = base[e, c_lo] - base[e, c_hi]
            uniforms[f, order[:rank]] = 0.999999
            probs[order[:rank]] = np.minimum(probs[order[:rank]], 0.9)
            uniforms[f, c_lo] = 0.0
            probs[c_lo] = max(probs[c_lo], 0.5)
            assert base[e, c_hi] + t_claim[c_hi] == base[e, c_lo]

    # Plant a future whose first free column's base equals an occupied column's cost exactly,
    # where that occupied column has the smaller index and so is the first argmin.
    e, f = int(rng.integers(n_rows)), int(rng.integers(n))
    order = np.argsort(base[e], kind="stable")
    rank = int(rng.integers(1, min(K, n_res - 1) + 1)) if n_res > 1 else 0
    c_free = int(order[rank])
    before = order[:rank]
    occupied = before[(before < c_free) & (base[e, before] < base[e, c_free])]
    if occupied.size and np.isfinite(base[e, c_free]):
        c_occ = int(occupied[0])
        t_claim[c_occ] = base[e, c_free] - base[e, c_occ]
        uniforms[f, before] = 0.999999
        probs[before] = np.minimum(probs[before], 0.9)
        uniforms[f, c_free] = 0.0
        probs[c_free] = max(probs[c_free], 0.5)
        assert base[e, c_occ] + t_claim[c_occ] == base[e, c_free]
    view = PlanningView(ctx, 0.0, np.ones(n_res, dtype=bool), DEFAULT, t_claim=t_claim)
    return view, base, uniforms, probs


def _record_cases(seen, base, uniforms, probs, t_claim, costs, mins):
    n_res = base.shape[1]
    available = uniforms < probs
    ties = (costs == mins[:, :, None]).sum(axis=2) > 1
    at_min_free = ((costs == mins[:, :, None]) & available).any(axis=2)
    at_min_waiting = ((costs == mins[:, :, None]) & ~available).any(axis=2)
    seen["pruned" if n_res > 2 * K else "unpruned"] += 1
    seen["equal minima"] += int((ties & np.isfinite(mins)).any())
    seen["base equals another base + t_claim"] += int((ties & at_min_free & at_min_waiting).any())
    seen["inf base"] += int(np.isinf(base).any())
    seen["every resource unreachable"] += int(np.isinf(mins).any())
    seen["reserved"] += int((probs == 0).any())
    seen["every spot occupied"] += int((~available.any(axis=1)).any())
    seen["one future"] += int(len(uniforms) == 1)
    seen["2,000 spots"] += int(n_res == 2000)
    if n_res > 2 * K:
        kth = np.sort(base, axis=1)[:, K][:, None]
        seen["minimum not below the cheapest omitted base"] += int((~(mins < kth)).any())
        seen["minimum equals the cheapest omitted base"] += int((ties & (mins == kth)).any())
        s_cols = np.unique(np.argpartition(base, K, axis=1)[:, :K])
    else:
        s_cols = np.arange(n_res)
    # Each (row, future)'s first free column of S in (base, index) order, found independently.
    occupied_bound = (base + t_claim).min(axis=1)
    for r in range(len(base)):
        ranked = s_cols[np.lexsort((s_cols, base[r, s_cols]))]
        free = available[:, ranked]  # (futures, |S|)
        for f in np.flatnonzero(free.any(axis=1)):
            c = ranked[free[f].argmax()]
            seen["first free base is inf"] += int(np.isinf(base[r, c]))
            seen["first free base equals min(base + t_claim)"] += int(
                np.isfinite(base[r, c]) and base[r, c] == occupied_bound[r])
            seen["equal-base free columns"] += int(
                np.isfinite(base[r, c]) and (free[f] & (base[r, ranked] == base[r, c])).sum() > 1)
        seen["no column of S free"] += int((~free.any(axis=1)).any())


def test_future_minima_matches_full_matrix():
    rng = np.random.default_rng(606)
    seen = Counter()
    for n_res in (1, 7, 150, 2 * K, 2 * K + 1, 250, 600, 2000):
        for _ in range(40):
            view, base, uniforms, probs = _kernel_case(rng, n_res)
            costs = full_costs(view, base, uniforms, probs)
            mins = costs.min(axis=2)
            future = FutureMinima(view, base, uniforms.T, probs)
            assert np.array_equal(future.mins, mins)
            # C-ordered, so each row mean is summed exactly as the oracle's
            assert future.mins.flags.c_contiguous
            assert np.array_equal(future.mins.mean(axis=1), mins.mean(axis=1), equal_nan=True)
            for row in range(len(base)):
                assert np.array_equal(future.argmin(row), costs[row].argmin(axis=1))
            _record_cases(seen, base, uniforms, probs, view.t_claim, costs, mins)
    missing = [case for case in (
        "pruned", "unpruned", "equal minima", "base equals another base + t_claim", "inf base",
        "every resource unreachable", "reserved", "every spot occupied", "one future",
        "minimum not below the cheapest omitted base", "minimum equals the cheapest omitted base",
        "first free base is inf", "first free base equals min(base + t_claim)", "no column of S free",
        "equal-base free columns", "2,000 spots",
    ) if not seen[case]]
    assert not missing, missing


def _decision_world(rng, n_res):
    """A 6x6 grid plus a street nobody can drive to; some spots are duplicates of others."""
    doc = build_grid_graph_doc(6, 6, spacing_m=200.0, drive_time_s=20.0, n_resources=n_res,
                               seed=int(rng.integers(1 << 30)))
    doc["nodes"].append({"id": "nx", "lat": -0.001, "lon": -0.001})
    doc["edges"].append({"id": "ex", "from": "nx", "to": "n0000", "length_m": 150.0, "drive_time_s": 15.0})
    unreachable = [{"id": f"rx{i}", "edge": "ex", "lat": -0.0005, "lon": -0.0005, "offset_s": 5.0}
                   for i in range(3)]
    copies = [dict(r, id=f"{r['id']}d") for r in doc["resources"][:: max(1, n_res // 8)]]
    doc["resources"] += unreachable + copies
    return make_context(doc)


def test_hindsight_decisions_match_full_matrix_oracle():
    rng = np.random.default_rng(607)
    seen = Counter()
    for n_res in (60, 150, 400):
        graph, ctx = _decision_world(rng, n_res)
        deg = 200.0 / 111_194.93
        for trial in range(12):
            n_det = int(rng.choice([1, 20, 100]))
            scope = None if trial % 3 else float(rng.uniform(30.0, 120.0))
            settings = PlannerSettings(determinizations=n_det, scope_horizon_s=scope)
            dest = GeoPoint(float(rng.uniform(0, 5)) * deg, float(rng.uniform(0, 5)) * deg)
            policy = HindsightPolicy(ctx, dest, settings)
            agent_rng = np.random.default_rng(trial)
            for step in range(3):
                frozen = trial % 4 == 1  # nothing frees up before arrival: every future is occupied
                avail = np.zeros(ctx.n_resources, dtype=bool) if frozen else rng.random(ctx.n_resources) < 0.3
                table = ReservationTable()
                for i, ridx in enumerate(rng.choice(ctx.n_resources, size=5, replace=False)):
                    table.place(f"other{i}", ctx.res_ids[ridx], t_arrival=-1.0)
                view = PlanningView(ctx, 30.0 * step, avail, CtmcParams(1e-9, 1e-9) if frozen else DEFAULT,
                                    reservations=table, agent_id="me")
                node = str(rng.choice([n for n in graph.nodes if n != "nx"]))
                try:
                    decision = policy.decide(view, node, agent_rng)
                except NoPathError:
                    with pytest.raises(NoPathError):
                        oracle_decide(policy, view, node)
                    continue
                expected, modal = oracle_decide(policy, view, node)
                assert decision == expected
                if modal is not None:
                    assert ctx.res_index[decision.target_resource] == modal
                forced, probs = planners._future_probabilities(view, ctx.drive_to_resources(node))
                seen["pruned" if ctx.n_resources > 2 * K else "unpruned"] += 1
                seen["reserved"] += int(forced.any())
                seen["every spot occupied"] += int((~(policy._uniforms.T < probs).any(axis=1)).any())
                seen["one future"] += int(n_det == 1)
                seen["out of scope"] += int(scope is not None)
                seen["unreachable"] += int(np.isinf(ctx.drive_to_resources(node)).any())
                seen["road action"] += int(modal is not None)
                seen["spot action"] += int(modal is None)
    assert all(seen[c] for c in ("pruned", "unpruned", "reserved", "every spot occupied", "one future",
                                 "out of scope", "unreachable", "road action", "spot action")), seen


def test_common_random_numbers_are_the_seeded_stream():
    _, ctx = _decision_world(np.random.default_rng(608), 60)
    dest = GeoPoint(0.0, 0.0)
    for seed, n_det in ((0, 1), (5, 20), (9, 100)):
        policy = HindsightPolicy(ctx, dest, PlannerSettings(determinizations=n_det))
        view = PlanningView(ctx, 0.0, np.ones(ctx.n_resources, dtype=bool), DEFAULT)
        policy.decide(view, "n0303", np.random.default_rng(seed))
        assert policy._uniforms.flags.c_contiguous
        assert np.array_equal(policy._uniforms.T, np.random.default_rng(seed).random((n_det, ctx.n_resources)))
