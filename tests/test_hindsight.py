"""The first-free hindsight solve against the full (futures x resources) cost matrix.

``full_costs`` and ``oracle_decide`` are the reference: they build every
future's cost of every resource, ``base + claim_wait(uniforms < probs)``, and
take its minimum and first argmin. ``HindsightPlan.solve`` takes most futures'
minimum from the first available spot in (base, index) order among a trip's
candidate spots, so these tests require bit-equal minima, equal argmins and
equal decisions for any candidate set of at most 511 spots (random ones, none,
one, every spot, one that omits each row's cheapest spots and one of 511 spots),
also when one plan is solved again for later decisions, and identical decisions
and records whatever ``planners.CANDIDATES`` is. The first free candidate, the
exponent of a sum of rank powers, is checked against the dense weight maximum of
``hindsight_oracle.first_free_weight`` in any summation order. Uniforms are
(futures, resources) as the agent's seeded stream draws them, rebuilt here from
the seed; the policy keeps only the candidates' uniforms, as a (candidates,
futures) kernel, and regenerates other rows from ``planners.DrawnRows``.
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
    DrawnRows,
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
from hindsight_oracle import first_free_weight

DEFAULT = CtmcParams.from_mean_times(120.0, 2091.0)
SET_KINDS = ("random", "empty", "one column", "every column", "default", "omits each row's cheapest",
             "511 columns")
WIDEST = 511  # the most candidates a plan takes: 4.0**511 is the largest rank power float64 holds


def full_costs(view, base, uniforms, probs):
    """The full (rows, futures, resources) cost matrix."""
    wait = view.claim_wait(uniforms < probs)
    return np.stack([row + wait for row in base])


def oracle_decide(policy, view, node, uniforms):
    """``HindsightPolicy.decide`` with one full cost matrix per out-edge, given the trip's whole
    (futures, resources) uniforms as its agent's stream draws them."""
    ctx = view.ctx
    walk = ctx.walk_vector(policy.destination)
    drive_here = ctx.drive_to_resources(node)
    forced, probs = planners._future_probabilities(view, drive_here)
    wait = view.claim_wait(uniforms < probs)
    candidates = []
    for ridx in ctx.adjacent_res[node]:
        if view.avail[ridx] and not forced[ridx]:
            value = float(ctx.res_offset[ridx] + walk[ridx])
            candidates.append((value, 0, ctx.res_ids[ridx], TakeResource(ridx), None))
    for street in ctx.out_edges[node]:
        base = ctx.drive_to_resources(ctx.edge_to[street]) + walk
        if policy.settings.scope_horizon_s is not None:
            base = np.where(drive_here > policy.settings.scope_horizon_s, np.inf, base)
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
    """Ascending candidate spots of one kind from ``SET_KINDS``; None (every spot, the default) for "default".
    A set of more than ``WIDEST`` spots, "default" too, is cut to a random ``WIDEST`` of them."""
    n_res = base.shape[1]
    if kind == "default":
        return None if n_res <= WIDEST else np.sort(rng.choice(n_res, size=WIDEST, replace=False))
    if kind == "omits each row's cheapest":
        cheapest = np.argsort(base, axis=1, kind="stable")[:, :int(rng.integers(1, 4))]
        pool = np.setdiff1d(np.arange(n_res), cheapest)
    else:
        pool = np.arange(n_res)
    size = {"empty": 0, "one column": 1, "every column": n_res, "511 columns": WIDEST}.get(
        kind, int(rng.integers(pool.size + 1)))
    return np.sort(rng.choice(pool, size=min(size, pool.size, WIDEST), replace=False))


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

    # Plant probabilities at a candidate's floor, its least uniform over the futures, one ulp below and one
    # above it, and forced zeros, and sometimes every candidate at or below its floor: ``u < p`` is strict, so
    # a candidate at its floor is free in no future and one just above it only where its uniform is the floor.
    if every.size and rng.random() < 0.5:
        floor = uniforms[:, every].min(axis=0)
        where = rng.integers(12, size=every.size)
        probs[every] = np.select([where == 0, where == 1, where == 2, where == 3],
                                 [floor, np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf), 0.0], probs[every])
        if rng.random() < 0.2:
            probs[every] = np.minimum(probs[every], floor)  # every candidate pair falls back
        probs = np.maximum(probs, 0.0)
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
    seen["set of 511 columns"] += int(cols.size == WIDEST)  # the largest rank power, 4.0**511
    seen["set omits each row's cheapest"] += int(cols.size > 0 and not inside[base.argmin(axis=1)].any())
    seen["no candidate free, another spot free"] += int(
        (~available[:, cols].any(axis=1) & available[:, ~inside].any(axis=1)).any())
    floor = uniforms[:, cols].min(axis=0)
    p = probs[cols]
    free_somewhere = available[:, cols].any(axis=0)
    seen["at the floor"] += int((p == floor).any())
    seen["just below the floor"] += int((p == np.nextafter(floor, -np.inf)).any())
    seen["just above the floor"] += int((p == np.nextafter(floor, np.inf)).any())
    seen["free only where the uniform is the floor"] += int(
        (available[:, cols].sum(axis=0) == 1)[p == np.nextafter(floor, np.inf)].any())
    seen["forced zero candidate"] += int((p == 0.0).any())
    seen["every candidate at or below its floor"] += int(p.size > 1 and not free_somewhere.any())
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
        return HindsightPlan(view.t_claim, base, (np.arange(base.shape[1]), view.t_claim))
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
        "equal-base free columns", "2,000 spots", "planted draw on a reused plan", "set of 511 columns",
        "set omits each row's cheapest", "at the floor", "just below the floor", "just above the floor",
        "free only where the uniform is the floor", "forced zero candidate", "every candidate at or below its floor",
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


def _agent_rng(trial):
    """The agent stream of an oracle-world trial: PCG64 (``default_rng``) in most, MT19937 or Philox in some."""
    kind = {1: np.random.MT19937, 4: np.random.Philox}.get(trial % 5, np.random.PCG64)
    return np.random.Generator(kind(trial))


def _oracle_world_decisions(monkeypatch=None, candidates=None, check=None):
    """Every decision on the oracle's worlds, in order, with ``planners.CANDIDATES`` set to ``candidates``
    (the world's spot count for "spots"; the default for None): a ``RouteDecision``, or ``NoPathError``
    where ``decide`` raised it. ``check(policy, view, node, decision, uniforms)`` sees each one, with the
    trip's uniforms rebuilt from its agent's seed."""
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
            agent_rng = _agent_rng(trial)
            uniforms = _agent_rng(trial).random((n_det, ctx.n_resources))
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
                    check(policy, view, node, decision, uniforms)
    return decisions


def test_hindsight_decisions_match_full_matrix_oracle():
    seen = Counter()

    def check(policy, view, node, decision, uniforms):
        ctx = view.ctx
        if decision is NoPathError:
            with pytest.raises(NoPathError):
                oracle_decide(policy, view, node, uniforms)
            return
        expected, modal = oracle_decide(policy, view, node, uniforms)
        assert decision == expected
        if modal is not None:
            assert decision.target_resource == modal
        forced, probs = planners._future_probabilities(view, ctx.drive_to_resources(node))
        seen["every spot" if policy._candidates[0].size == ctx.n_resources else "candidates"] += 1
        seen["reserved"] += int(forced.any())
        seen["every spot occupied"] += int((~(uniforms < probs).any(axis=1)).any())
        seen[f"rows rebuilt: {policy._rows.kind.__name__}"] += int(policy._rows._rng is not None)
        seen["one future"] += int(policy.settings.determinizations == 1)
        seen["out of scope"] += int(policy.settings.scope_horizon_s is not None)
        seen["unreachable"] += int(np.isinf(ctx.drive_to_resources(node)).any())
        seen["road action"] += int(modal is not None)
        seen["spot action"] += int(modal is None)

    _oracle_world_decisions(check=check)
    assert all(seen[c] for c in ("every spot", "candidates", "reserved", "every spot occupied", "one future",
                                 "out of scope", "unreachable", "road action", "spot action",
                                 "rows rebuilt: PCG64", "rows rebuilt: MT19937", "rows rebuilt: Philox")), seen


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


def _one_row_past_a_block(n_res):
    """Futures whose draw ends with a block of one row, where a block is ``max(1, n * candidates // spots)``
    rows, no more floats than the kernel; with every spot a candidate the draw is one block, of 21 rows here."""
    n_s = min(planners.CANDIDATES, n_res)
    return 21 if n_s == n_res else next(n for n in range(2, 1000) if n % max(1, n * n_s // n_res) == 1
                                            and n > max(1, n * n_s // n_res))


def test_common_random_numbers_are_the_seeded_stream():
    """A trip's kernel holds the candidates' uniforms of the seeded stream, (futures, resources) as drawn,
    the candidates being the ``CANDIDATES`` spots nearest the destination by walk, or every spot. After the
    first decision the agent's stream stands where one whole draw leaves it, and the trip's rows are those
    of that draw, with one future, with a last block of one row and with 100 futures."""
    for n_res in (60, 400):
        _, ctx = _decision_world(np.random.default_rng(608), n_res)
        dest = GeoPoint(0.0, 0.0)
        walk = ctx.walk_vector(dest)
        for seed, n_det in ((0, 1), (5, _one_row_past_a_block(ctx.n_resources)), (9, 100)):
            policy = HindsightPolicy(ctx, dest, PlannerSettings(determinizations=n_det))
            view = make_view(ctx, np.ones(ctx.n_resources, dtype=bool), DEFAULT)
            agent = np.random.default_rng(seed)
            policy.decide(view, ctx.node_index["n0303"], agent)
            stream = np.random.default_rng(seed)
            drawn = stream.random((n_det, ctx.n_resources))
            assert agent.bit_generator.state == stream.bit_generator.state
            assert np.array_equal(policy._rows[np.arange(n_det)], drawn)
            # the plans' bound adds t_claim on the candidates and nothing elsewhere
            cols, claim_on = policy._candidates
            assert np.array_equal(claim_on[cols], view.t_claim[cols]) and not np.delete(claim_on, cols).any()
            assert cols.size == min(planners.CANDIDATES, ctx.n_resources)
            assert np.all(np.diff(cols) > 0)
            assert walk[cols].max() <= np.delete(walk, cols).min(initial=np.inf)
            assert policy._kernel.flags.c_contiguous
            assert np.array_equal(policy._kernel, drawn[:, cols].T)


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_drawn_rows_are_the_seeded_stream(kind):
    """``DrawnRows`` gives the rows of the draw from the state it saw, bit for bit, in the order asked for:
    sorted, unsorted, repeated, none, the first and the last, also on 0 and 1 spots and after a draw
    has moved the stream on."""
    for n_spots, n in ((0, 5), (1, 7), (37, 50), (600, 20)):
        rng = np.random.Generator(kind(n_spots))
        rng.random(3)  # the trip's draw need not start the stream
        rows = DrawnRows(rng.bit_generator, n_spots)
        drawn = rng.random((n, n_spots))
        for futures in ([0], [n - 1], [], [1, 3, 4], [4, 1, 3], [3, 3, 0, n - 1, 3, 0], list(range(n))[::-1]):
            futures = np.array(futures, dtype=np.intp)
            got = rows[futures]
            assert got.shape == (futures.size, n_spots)
            assert np.array_equal(got, drawn[futures]), (kind.__name__, n_spots, futures)


def test_trip_keeps_no_array_larger_than_its_kernel():
    """After a trip's first decision on 2,000 spots with 100 futures, neither the policy nor its row source
    holds an array larger than the (candidates, futures) kernel: no (futures, spots) matrix is kept."""
    ctx = _context(2000)
    policy = HindsightPolicy(ctx, GeoPoint(0.0, 0.0), PlannerSettings(determinizations=100))
    view = make_view(ctx, np.random.default_rng(1).random(ctx.n_resources) < 0.3, DEFAULT)
    policy.decide(view, ctx.node_index["n0101"], np.random.default_rng(2))
    assert policy._kernel.shape == (planners.CANDIDATES, 100)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)

    held = list(arrays(vars(policy))) + list(arrays(vars(policy._rows)))
    assert held and max(a.nbytes for a in held) <= policy._kernel.nbytes


def test_rank_powers_find_the_first_free_candidate():
    """The exponent of the sum of a future's free rank powers is its largest free weight, bit for bit as
    the dense weight maximum, whatever the summation order: with no, one, every and random candidates
    free, equal and inf bases included, at 1, 160 and 511 columns. A plan of 512 columns is refused."""
    rng = np.random.default_rng(611)
    for n_s in (1, 160, WIDEST):
        for n_res in (n_s, n_s + 89):
            base = 100.0 + rng.integers(0, 64, size=(3, n_res)) / 8.0  # many equal bases
            base[0, rng.random(n_res) < 0.1] = np.inf
            t_claim = rng.uniform(100.0, 400.0, n_res)
            cols = np.sort(rng.choice(n_res, size=n_s, replace=False))
            plan = HindsightPlan(t_claim, base, (cols, np.where(np.isin(np.arange(n_res), cols), t_claim, 0.0)))
            bases = base[:, cols]
            # with column j alone free in future j, the weight maximum is every column's weight
            assert np.array_equal(plan.power, 4.0 ** first_free_weight(bases, np.eye(n_s, dtype=bool)))
            one = np.zeros((n_s, 3 * n_s), dtype=bool)
            one[np.arange(3 * n_s) % n_s, np.arange(3 * n_s)] = True
            for name, free in (("none", np.zeros((n_s, 5), dtype=bool)), ("one", one),
                               ("every", np.ones((n_s, 5), dtype=bool)),
                               ("random", rng.random((n_s, 100)) < rng.uniform(0.0, 1.0, (n_s, 1)))):
                want = first_free_weight(bases, free)
                assert want.any() == (name != "none") and (name != "every" or (want == n_s).all())
                for order in (slice(None), slice(None, None, -1), rng.permutation(n_s)):
                    # as solve finds it: the sum of the free powers has binary exponent 2 * weight + 1
                    power, mask = np.ascontiguousarray(plan.power[:, order]), np.ascontiguousarray(free[order])
                    got = np.frexp(power @ mask)[1] >> 1
                    assert np.array_equal(got, want), (n_s, name)
    with pytest.raises(ValueError, match="511"):
        HindsightPlan(np.ones(WIDEST + 1), np.zeros((1, WIDEST + 1)), (np.arange(WIDEST + 1), np.ones(WIDEST + 1)))
    with pytest.raises(ValueError, match="511"):
        HindsightPlan(np.ones(600), np.zeros((1, 600)), (np.arange(WIDEST + 1), np.ones(600)))
