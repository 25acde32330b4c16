"""The first-free hindsight solve against the full (futures x resources) cost matrix.

``full_costs`` and ``oracle_decide`` are the reference: they build every
future's cost of every resource, ``base + claim_wait(uniforms < probs)``, and
take its minimum and first argmin. ``HindsightPlan.solve`` takes most futures'
minimum from the first available spot in (base, index) order among a trip's
candidate spots, so these tests require bit-equal minima, equal argmins and
equal decisions for any candidate set (random ones, none, one, every spot, one
that omits each row's cheapest spots and one of more than 255 spots), also when
one plan is solved again for later decisions, and identical decisions and
records whatever ``planners.CANDIDATES`` is. Uniforms are (futures, resources)
as drawn, as ``HindsightPolicy._drawn`` holds them; the kernel's copy of the
candidates' uniforms is (candidates, futures).
"""

from collections import Counter

import numpy as np
import pytest

from parksearch import planners
from parksearch.availability import CtmcParams
from parksearch.engine import AgentSpec, run_simulation
from parksearch.errors import NoPathError
from parksearch.fleet import ReservationTable
from parksearch.geo import GeoPoint
from parksearch.planners import (
    HindsightPlan,
    HindsightPolicy,
    PlannerSettings,
    RouteDecision,
    TakeResource,
    TakeRoad,
    modal_choice,
)
from parksearch.scenario import build_grid_graph_doc

from conftest import FROZEN, make_context, make_view

DEFAULT = CtmcParams.from_mean_times(120.0, 2091.0)
SET_KINDS = ("random", "empty", "one column", "every column", "default", "omits each row's cheapest",
             "more than 255 columns")


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
    wait = view.claim_wait(policy._drawn < probs)
    candidates = []
    for ridx in ctx.adjacent_res[node]:
        if view.avail[ridx] and not forced[ridx]:
            value = float(ctx.res_offset[ridx] + walk[ridx])
            candidates.append((value, 0, ctx.res_ids[ridx], TakeResource(ridx), None))
    for street in ctx.out_edges[node]:
        base = ctx.drive_to_resources(ctx.edge_to[street]) + walk
        if policy.scope_horizon_s is not None:
            base = np.where(drive_here > policy.scope_horizon_s, np.inf, base)
        costs = base + wait
        candidates.append((float(ctx.edge_time[street] + costs.min(axis=1).mean()), 1, ctx.edge_ids[street],
                           TakeRoad(street), costs))
    candidates.sort(key=lambda c: c[:3])
    value, _, _, action, costs = candidates[0]
    if not np.isfinite(value):
        raise NoPathError(f"no resource reachable from {ctx.node_ids[node]!r}")
    if isinstance(action, TakeResource):
        ridx = action.resource
        return RouteDecision(action, ridx, float(view.now + ctx.res_offset[ridx])), None
    modal = modal_choice(costs.argmin(axis=1), ctx.n_resources)
    street = action.edge
    arrival = (view.now + ctx.edge_time[street]) + (ctx.drive_time(ctx.edge_to[street], ctx.res_from_idx[modal])
                                                     + ctx.res_offset[modal])
    return RouteDecision(action, modal, float(arrival)), modal


_CONTEXTS = {}


def _context(n_res):
    if n_res not in _CONTEXTS:
        _CONTEXTS[n_res] = make_context(build_grid_graph_doc(4, 4, n_resources=n_res, seed=n_res))[1]
    return _CONTEXTS[n_res]


def _candidate_set(rng, kind, base):
    """Ascending candidate spots of one kind from ``SET_KINDS``; None (every spot, the default) for "default"."""
    n_res = base.shape[1]
    if kind == "default":
        return None
    if kind == "omits each row's cheapest":
        cheapest = np.argsort(base, axis=1, kind="stable")[:, :int(rng.integers(1, 4))]
        pool = np.setdiff1d(np.arange(n_res), cheapest)
    else:
        pool = np.arange(n_res)
    size = {"empty": 0, "one column": 1, "every column": n_res}.get(kind, int(rng.integers(pool.size + 1)))
    if kind == "more than 255 columns" and n_res > 255:
        size = int(rng.integers(256, n_res + 1))
    return np.sort(rng.choice(pool, size=min(size, pool.size), replace=False))


def _occupy_before(base_row, cols, column, uniforms, probs, f):
    """Make every candidate before ``column`` in (base, index) order occupied in future ``f``, and
    ``column`` free there."""
    before = cols[(base_row[cols] < base_row[column]) | ((base_row[cols] == base_row[column]) & (cols < column))]
    uniforms[f, before] = 0.999999
    probs[before] = np.minimum(probs[before], 0.9)
    uniforms[f, column] = 0.0
    probs[column] = max(probs[column], 0.5)


def _kernel_case(rng, n_res, kind):
    """Random base, (futures, resources) uniforms, probabilities, waits and a candidate set of ``kind``,
    with the edge cases planted."""
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
    cols = _candidate_set(rng, kind, base)
    every = np.arange(n_res) if cols is None else cols
    outside = np.setdiff1d(np.arange(n_res), every)

    # Plant a future whose first free candidate's base equals the least base outside the set: that base
    # is the bound, so the pair falls back, and the outside spot, when free and of smaller index, wins.
    e, f = int(rng.integers(n_rows)), int(rng.integers(n))
    if every.size and outside.size and np.isfinite(base[e, outside]).any():
        c_out = int(outside[np.argmin(base[e, outside])])
        c_in = int(rng.choice(every))
        base[e, c_in] = base[e, c_out]
        _occupy_before(base[e], every, c_in, uniforms, probs, f)
        uniforms[f, c_out] = 0.0 if rng.random() < 0.5 else 0.999999
        assert base[e, c_in] == base[e, outside].min()

    # Plant a future with no candidate free.
    if every.size and rng.random() < 0.5:
        f = int(rng.integers(n))
        uniforms[f, every] = 0.999999
        probs[every] = np.minimum(probs[every], 0.9)

    # Plant a future whose minimum is a free spot's base reached also through a later spot's circling
    # wait: c_lo ties with c_hi + t_claim[c_hi], and c_lo, of smaller index, is the first argmin.
    e, f = int(rng.integers(n_rows)), int(rng.integers(n))
    order = np.argsort(base[e], kind="stable")
    rank = int(rng.integers(n_res))
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

    # Plant a future whose first free candidate's base equals an occupied candidate's cost exactly,
    # where that occupied candidate has the smaller index and so is the first argmin.
    e, f = int(rng.integers(n_rows)), int(rng.integers(n))
    ranked = every[np.lexsort((every, base[e, every]))]
    rank = int(rng.integers(1, ranked.size)) if ranked.size > 1 else 0
    if ranked.size:
        c_free = int(ranked[rank])
        before = ranked[:rank]
        occupied = before[(before < c_free) & (base[e, before] < base[e, c_free])]
        if occupied.size and np.isfinite(base[e, c_free]):
            c_occ = int(occupied[0])
            t_claim[c_occ] = base[e, c_free] - base[e, c_occ]
            _occupy_before(base[e], every, c_free, uniforms, probs, f)
            assert base[e, c_occ] + t_claim[c_occ] == base[e, c_free]
    view = make_view(ctx, np.ones(n_res, dtype=bool), DEFAULT, t_claim=t_claim)
    return view, base, uniforms, probs, cols


def _record_cases(seen, base, uniforms, probs, t_claim, cols, costs, mins):
    n_res = base.shape[1]
    cols = np.arange(n_res) if cols is None else cols
    inside = np.zeros(n_res, dtype=bool)
    inside[cols] = True
    available = uniforms < probs
    ties = (costs == mins[:, :, None]).sum(axis=2) > 1
    at_min_free = ((costs == mins[:, :, None]) & available).any(axis=2)
    at_min_waiting = ((costs == mins[:, :, None]) & ~available).any(axis=2)
    seen["equal minima"] += int((ties & np.isfinite(mins)).any())
    seen["base equals another base + t_claim"] += int((ties & at_min_free & at_min_waiting).any())
    seen["inf base"] += int(np.isinf(base).any())
    seen["every resource unreachable"] += int(np.isinf(mins).any())
    seen["reserved"] += int((probs == 0).any())
    seen["every spot occupied"] += int((~available.any(axis=1)).any())
    seen["one future"] += int(len(uniforms) == 1)
    seen["2,000 spots"] += int(n_res == 2000)
    seen["set of more than 255 columns"] += int(cols.size > 255)  # weights wider than a byte
    seen["set omits each row's cheapest"] += int(cols.size > 0 and not inside[base.argmin(axis=1)].any())
    seen["no candidate free, another spot free"] += int(
        (~available[:, cols].any(axis=1) & available[:, ~inside].any(axis=1)).any())
    least_outside = np.where(inside, np.inf, base).min(axis=1)[:, None]
    seen["minimum not below the least base outside the set"] += int(
        (np.isfinite(mins) & ~(mins < least_outside)).any())
    seen["minimum equals the least base outside the set"] += int((ties & (mins == least_outside)).any())
    # Each (row, future)'s first free candidate in (base, index) order, found independently.
    bound = (base + np.where(inside, t_claim, 0.0)).min(axis=1)
    for r in range(len(base)):
        ranked = cols[np.lexsort((cols, base[r, cols]))]
        free = available[:, ranked]  # (futures, candidates)
        for f in np.flatnonzero(free.any(axis=1)):
            c = ranked[free[f].argmax()]
            seen["first free base is inf"] += int(np.isinf(base[r, c]))
            seen["first free base equals the bound"] += int(np.isfinite(base[r, c]) and base[r, c] == bound[r])
            seen["equal-base free columns"] += int(
                np.isfinite(base[r, c]) and (free[f] & (base[r, ranked] == base[r, c])).sum() > 1)


def _plan(view, base, cols):
    """The plan over the candidate spots ``cols``, with ``t_claim`` on them and 0 elsewhere; None is every spot."""
    if cols is None:
        return HindsightPlan(view.t_claim, base)
    claim_on = np.where(np.isin(np.arange(base.shape[1]), cols), view.t_claim, 0.0)
    return HindsightPlan(view.t_claim, base, (cols, claim_on))


def _fresh_draw(rng, n, n_res):
    """Another decision's (futures, resources) uniforms and probabilities for the same plan."""
    uniforms = rng.random((n, n_res))
    probs = rng.uniform(0.0, 0.9, n_res)
    probs[rng.random(n_res) < 0.2] = 0.0
    if rng.random() < 0.1:
        probs[:] = 0.0
    return uniforms, probs


def _kernel_copy(uniforms, cols):
    """The candidates' uniforms as the policy keeps them for the kernel: one C-ordered (candidates, futures) array."""
    return np.ascontiguousarray(uniforms.T if cols is None else uniforms[:, cols].T)


def test_future_minima_matches_full_matrix():
    rng = np.random.default_rng(606)
    seen = Counter()
    for n_res in (1, 7, 150, 160, 161, 250, 600, 2000):
        for trial in range(40):
            kind = SET_KINDS[trial % len(SET_KINDS)]
            view, base, uniforms, probs, cols = _kernel_case(rng, n_res, kind)
            seen[f"set: {kind}"] += 1
            # One plan serves several decisions, as a run's shared table does; the planted draw
            # comes at a random place among fresh ones, so it is often solved on a reused plan.
            plan = _plan(view, base, cols)
            planted = (uniforms, probs)
            draws = [_fresh_draw(rng, len(uniforms), n_res) for _ in range(int(rng.integers(1, 3)))]
            draws.insert(int(rng.integers(len(draws) + 1)), planted)
            seen["planted draw on a reused plan"] += int(draws[0] is not planted)
            for draw in draws:
                uniforms, probs = draw
                costs = full_costs(view, base, uniforms, probs)
                mins = costs.min(axis=2)
                # as the policy keeps them: with every spot a candidate, drawn is the kernel's transposed view
                kernel = _kernel_copy(uniforms, cols)
                got, picks = plan.solve(kernel.T if cols is None else uniforms, kernel, probs)
                assert np.array_equal(got, mins)
                # C-ordered, so each row mean is summed exactly as the oracle's
                assert got.flags.c_contiguous
                assert np.array_equal(got.mean(axis=1), mins.mean(axis=1), equal_nan=True)
                for row in range(len(base)):
                    assert np.array_equal(picks[row], costs[row].argmin(axis=1))
                if draw is planted:  # the edge cases are planted in this draw
                    _record_cases(seen, base, uniforms, probs, view.t_claim, cols, costs, mins)
    missing = [case for case in (
        *(f"set: {kind}" for kind in SET_KINDS), "equal minima", "base equals another base + t_claim",
        "inf base", "every resource unreachable", "reserved", "every spot occupied", "one future",
        "minimum not below the least base outside the set", "minimum equals the least base outside the set",
        "first free base is inf", "first free base equals the bound", "no candidate free, another spot free",
        "equal-base free columns", "2,000 spots", "planted draw on a reused plan", "set of more than 255 columns",
        "set omits each row's cheapest",
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


def _oracle_world_decisions(monkeypatch=None, candidates=None, check=None):
    """Every decision on the oracle's worlds, in order, with ``planners.CANDIDATES`` set to ``candidates``
    (the world's spot count for "spots"; the default for None): a ``RouteDecision``, or ``NoPathError``
    where ``decide`` raised it. ``check(policy, view, node, decision)`` sees each one."""
    rng = np.random.default_rng(607)
    decisions = []
    for n_res in (60, 150, 400):
        graph, ctx = _decision_world(rng, n_res)
        if candidates is not None:
            monkeypatch.setattr(planners, "CANDIDATES", ctx.n_resources if candidates == "spots" else candidates)
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
                table = ReservationTable(6)  # agent 0 decides; agents 1 to 5 hold reservations
                for i, ridx in enumerate(rng.choice(ctx.n_resources, size=5, replace=False)):
                    table.place(i + 1, int(ridx), t_arrival=-1.0)
                view = make_view(ctx, avail, FROZEN if frozen else DEFAULT, 30.0 * step,
                                 reservations=table, agent_id=0)
                node = ctx.node_index[str(rng.choice([n for n in graph.nodes if n != "nx"]))]
                try:
                    decision = policy.decide(view, node, agent_rng)
                except NoPathError:
                    decision = NoPathError
                decisions.append(decision)
                if check is not None:
                    check(policy, view, node, decision)
    return decisions


def test_hindsight_decisions_match_full_matrix_oracle():
    seen = Counter()

    def check(policy, view, node, decision):
        ctx = view.ctx
        if decision is NoPathError:
            with pytest.raises(NoPathError):
                oracle_decide(policy, view, node)
            return
        expected, modal = oracle_decide(policy, view, node)
        assert decision == expected
        if modal is not None:
            assert decision.target_resource == modal
        forced, probs = planners._future_probabilities(view, ctx.drive_to_resources(node))
        seen["every spot" if policy._candidates is None else "candidates"] += 1
        seen["reserved"] += int(forced.any())
        seen["every spot occupied"] += int((~(policy._drawn < probs).any(axis=1)).any())
        seen["one future"] += int(policy.n == 1)
        seen["out of scope"] += int(policy.scope_horizon_s is not None)
        seen["unreachable"] += int(np.isinf(ctx.drive_to_resources(node)).any())
        seen["road action"] += int(modal is not None)
        seen["spot action"] += int(modal is None)

    _oracle_world_decisions(check=check)
    assert all(seen[c] for c in ("every spot", "candidates", "reserved", "every spot occupied", "one future",
                                 "out of scope", "unreachable", "road action", "spot action")), seen


def _hs_r_records():
    """One hs_r run on a 6x6 grid with 300 spots: 12 agents, three to each of four destinations, so each
    destination's agents share a plan table."""
    rng = np.random.default_rng(610)
    doc = build_grid_graph_doc(6, 6, spacing_m=200.0, drive_time_s=20.0, n_resources=300, seed=610)
    graph, _ = make_context(doc)
    deg = 200.0 / 111_194.93
    dests = [GeoPoint(float(rng.uniform(1, 4)) * deg, float(rng.uniform(1, 4)) * deg) for _ in range(4)]
    nodes = sorted(graph.nodes)
    agents = [AgentSpec(f"a{i:02d}", str(rng.choice(nodes)), dests[i % 4], float(rng.uniform(0, 120)), "hs_r")
              for i in range(12)]
    return run_simulation(graph, agents, DEFAULT, seed=3, horizon_s=3600.0,
                          settings=PlannerSettings(determinizations=20), measure_computation=False)


def test_hindsight_results_do_not_depend_on_the_candidate_set(monkeypatch):
    """Any candidate set is exact, so one spot, seven, the default and every spot give the same decisions
    on the oracle's worlds and the same hs_r records."""
    default = planners.CANDIDATES
    runs = {}
    for candidates in (1, 7, default, "spots"):
        decisions = _oracle_world_decisions(monkeypatch, candidates)
        monkeypatch.setattr(planners, "CANDIDATES", 300 if candidates == "spots" else candidates)
        runs[candidates] = decisions, _hs_r_records()
    decisions, records = runs[default]
    assert sum(d is not NoPathError and isinstance(d.action, TakeRoad) for d in decisions) > len(decisions) // 2
    assert {r.status for r in records} >= {"parked"}
    for candidates, run in runs.items():
        assert run == (decisions, records), candidates


def test_common_random_numbers_are_the_seeded_stream():
    """A trip's uniforms are the seeded stream as drawn, (futures, resources), and the kernel's copy holds
    the candidates' uniforms: the ``CANDIDATES`` spots nearest the destination by walk, or every spot."""
    for n_res in (60, 400):
        _, ctx = _decision_world(np.random.default_rng(608), n_res)
        dest = GeoPoint(0.0, 0.0)
        walk = ctx.walk_vector(dest)
        for seed, n_det in ((0, 1), (5, 20), (9, 100)):
            policy = HindsightPolicy(ctx, dest, PlannerSettings(determinizations=n_det))
            view = make_view(ctx, np.ones(ctx.n_resources, dtype=bool), DEFAULT)
            policy.decide(view, ctx.node_index["n0303"], np.random.default_rng(seed))
            drawn = np.random.default_rng(seed).random((n_det, ctx.n_resources))
            assert np.array_equal(policy._drawn, drawn)
            if policy._candidates is None:
                cols = np.arange(ctx.n_resources)
            else:  # the plans' bound adds t_claim on the candidates and nothing elsewhere
                cols, claim_on = policy._candidates
                assert np.array_equal(claim_on[cols], view.t_claim[cols]) and not np.delete(claim_on, cols).any()
            assert cols.size == min(planners.CANDIDATES, ctx.n_resources)
            assert np.all(np.diff(cols) > 0)
            assert walk[cols].max() <= np.delete(walk, cols).min(initial=np.inf)
            assert policy._kernel.flags.c_contiguous
            assert np.array_equal(policy._kernel, drawn[:, cols].T)


def _floor_case(rng, n_res, kind):
    """A kernel case with the candidates' uniforms copied as the policy keeps them and each candidate's
    floor, with probabilities planted at, just below and just above each candidate's floor, forced
    zeros, and sometimes every candidate at or below it."""
    view, base, uniforms, probs, cols = _kernel_case(rng, n_res, kind)
    every = np.arange(n_res) if cols is None else cols
    kernel = _kernel_copy(uniforms, cols)
    floor = kernel.min(axis=1)
    where = rng.integers(6, size=every.size)
    probs[every] = np.select([where == 0, where == 1, where == 2, where == 3],
                             [floor, np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf), 0.0], probs[every])
    if rng.random() < 0.15:
        probs[every] = np.minimum(probs[every], floor)  # every candidate pair falls back
    return view, base, uniforms, np.maximum(probs, 0.0), cols, kernel, floor


def test_floor_kernel_matches_full_matrix():
    """``solve`` with each candidate's floor returns the same minima and argmins, bit for bit, as
    without it and as the full cost matrix, for every kind of candidate set; the candidates it scans
    are exactly those free in some future, so none at its floor is scanned."""
    rng = np.random.default_rng(609)
    seen = Counter()
    for n_res in (1, 7, 150, 160, 161, 600):
        for trial in range(30):
            kind = SET_KINDS[trial % len(SET_KINDS)]
            view, base, uniforms, probs, cols, kernel, floor = _floor_case(rng, n_res, kind)
            plan = _plan(view, base, cols)
            costs = full_costs(view, base, uniforms, probs)
            mins, picks = plan.solve(uniforms, kernel, probs, floor)
            plain_mins, plain_picks = plan.solve(uniforms, kernel, probs)
            assert np.array_equal(mins, costs.min(axis=2)) and np.array_equal(mins, plain_mins)
            assert np.array_equal(picks, costs.argmin(axis=2)) and np.array_equal(picks, plain_picks)
            assert mins.flags.c_contiguous
            p = probs if cols is None else probs[cols]
            free_somewhere = (kernel < p[:, None]).any(axis=1)
            assert np.array_equal(planners.free_in_some_future(p, floor), free_somewhere)
            seen[f"set: {kind}"] += 1
            seen["at the floor"] += int((p == floor).any())
            seen["just below the floor"] += int((p == np.nextafter(floor, -np.inf)).any())
            seen["just above the floor"] += int((p == np.nextafter(floor, np.inf)).any())
            seen["free only where the uniform is the floor"] += int(
                ((kernel < p[:, None]).sum(axis=1) == 1)[p == np.nextafter(floor, np.inf)].any())
            seen["forced zero"] += int((p == 0.0).any())
            seen["every candidate at or below its floor"] += int(p.size > 1 and not free_somewhere.any())
            seen["one future"] += int(uniforms.shape[0] == 1)
    missing = [case for case in (
        *(f"set: {kind}" for kind in SET_KINDS), "at the floor", "just below the floor", "just above the floor",
        "free only where the uniform is the floor", "forced zero", "every candidate at or below its floor",
        "one future",
    ) if not seen[case]]
    assert not missing, missing
