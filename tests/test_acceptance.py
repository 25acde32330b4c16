"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 share one competition study: a 10x10 grid (440 m blocks, drive
25 s) with 150 parking spots concentrated on 30 streets, a high-demand center
whose spots are practically never free, and a turning-over outer ring. Twenty
agents start together at a corner with the same central destination; every
planner kind runs the same 20 seeds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import math

import numpy as np
import pytest

from parksearch.availability import AdaptionOverlay, CtmcParams
from parksearch.engine import AgentSpec, run_simulation, synthesize_occupations
from parksearch.errors import NoPathError
from parksearch.fleet import ReservationTable
from parksearch.geo import EARTH_RADIUS_M, GeoPoint, great_circle_m, walking_time
from parksearch.graph import all_pairs_travel_times, load_graph
from parksearch.planners import PlannerContext, PlanningView
from parksearch.scenario import build_grid_graph_doc, dbscan, run_batch

from conftest import bellman_ford_times, random_graph_doc, trace_rows
from ctmc_oracle import ResourceBelief, ResourceState, availability_probability, transition_probability
from hindsight_oracle import Determinization, sample_determinizations, solve_determinization

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
A, O = ResourceState.AVAILABLE, ResourceState.OCCUPIED

PLANNERS = ("random", "heuristic", "rpl", "hs", "rpl_r", "hs_r", "hs_a")
INFO_PLANNERS = ("rpl", "hs", "rpl_r", "hs_r", "hs_a")
SEEDS = tuple(range(1, 21))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")


# --------------------------------------------------------------------------
# Criteria 1-2: availability process
# --------------------------------------------------------------------------

def _simulate_chains(params, start_available, t, n, rng):
    state = np.full(n, start_available, dtype=bool)
    clock = np.zeros(n)
    active = np.ones(n, dtype=bool)
    while active.any():
        rate = np.where(state, params.lam, params.mu)
        clock = clock + np.where(active, rng.exponential(1.0 / rate), 0.0)
        flip = active & (clock < t)
        state[flip] = ~state[flip]
        active = flip
    return state


def test_criterion_01_ctmc_against_monte_carlo():
    rng = np.random.default_rng(20240)
    worst_mc, worst_ck = 0.0, 0.0
    for trial in range(20):
        params = CtmcParams.from_mean_times(float(rng.uniform(50, 3000)),
                                            float(rng.uniform(50, 3000)))
        t = float(rng.uniform(10, 1500))
        start_available = bool(trial % 2)
        frm = A if start_available else O
        emp = _simulate_chains(params, start_available, t, 100_000, rng).mean()
        gap = abs(transition_probability(params, frm, A, t) - emp)
        worst_mc = max(worst_mc, gap)

        s2, t2 = float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000))
        P = lambda dt: np.array([
            [transition_probability(params, A, A, dt), transition_probability(params, A, O, dt)],
            [transition_probability(params, O, A, dt), transition_probability(params, O, O, dt)],
        ])
        worst_ck = max(worst_ck, float(np.abs(P(s2) @ P(t2) - P(s2 + t2)).max()))
    ok = worst_mc <= 0.01 and worst_ck <= 1e-9
    _report(1, "availability process vs Monte Carlo", ok,
            f"max MC gap {worst_mc:.4f} (<=0.01), max semigroup gap {worst_ck:.2e} (<=1e-9)")
    assert worst_mc <= 0.01
    assert worst_ck <= 1e-9


def test_criterion_02_stationary_availability():
    params = CtmcParams.from_mean_times(120.0, 2091.0)
    doc = build_grid_graph_doc(8, 8, n_resources=400, seed=5)
    graph = load_graph(doc)
    horizon = 150_000.0
    trace = synthesize_occupations(graph, params, horizon, np.random.default_rng(77))

    per_resource_flips: dict[str, list] = {rid: [] for rid in graph.resources}
    for rid, t, up in trace_rows(trace):
        per_resource_flips[rid].append((t, up))
    start_up = dict(zip(trace.resources.tolist(), trace.start_up.tolist()))
    available_time = 0.0
    for rid in graph.resources:
        state = start_up[rid]
        t_prev = 0.0
        for t, up in per_resource_flips[rid]:
            if state:
                available_time += t - t_prev
            t_prev = t
            state = up
        if state:
            available_time += horizon - t_prev
    fraction = available_time / (len(graph.resources) * horizon)
    ok = abs(fraction - 0.054) <= 0.005
    _report(2, "long-run synthetic availability", ok,
            f"measured {fraction:.4f} vs 0.054 +/- 0.005")
    assert ok


# --------------------------------------------------------------------------
# Criterion 3: oracle equivalences
# --------------------------------------------------------------------------

def test_criterion_03_oracle_equivalences():
    rng = np.random.default_rng(303)

    apsp_exact = True
    for n_nodes, integer in ((50, True), (35, False), (20, True)):
        graph = load_graph(random_graph_doc(rng, n_nodes=n_nodes, n_resources=0,
                                            integer_weights=integer))
        times = all_pairs_travel_times(graph)
        index = {nid: i for i, nid in enumerate(graph.nodes)}
        for source in list(graph.nodes)[:: max(1, n_nodes // 8)]:
            oracle = bellman_ford_times(graph, source)
            row = times[index[source]]
            for target in graph.nodes:
                if row[index[target]] != oracle[target]:
                    apsp_exact = False

    solve_exact = True
    params = CtmcParams.from_mean_times(120.0, 2091.0)
    for _ in range(150):
        doc = random_graph_doc(rng, n_nodes=7, edge_prob=0.4, n_resources=5)
        graph = load_graph(doc)
        if not graph.resources:
            continue
        ctx = PlannerContext(graph, all_pairs_travel_times(graph))
        view = PlanningView(ctx, 0.0, rng.random(len(graph.resources)) < 0.5, params)
        dest = GeoPoint(float(rng.uniform(-0.01, 0.01)), float(rng.uniform(-0.01, 0.01)))
        avail = rng.random(len(graph.resources)) < 0.5
        start = str(rng.choice(list(graph.nodes)))
        best_id, best_cost = None, np.inf
        for i, rid in enumerate(ctx.res_ids):
            r = graph.resources[rid]
            street_start = ctx.node_index[graph.edges[r.edge_id].from_node]
            cost = (ctx.drive_time(ctx.node_index[start], street_start) + r.offset_s
                    + walking_time(r.position, dest))
            if not avail[i]:
                cost += float(view.t_claim[i])
            if cost < best_cost:
                best_id, best_cost = rid, cost
        try:
            rid, cost = solve_determinization(view, ctx.node_index[start], Determinization(available=avail), dest)
        except NoPathError:
            if np.isfinite(best_cost):
                solve_exact = False
            continue
        if rid != best_id or cost != best_cost:
            solve_exact = False

    dbscan_ok = True
    for _ in range(2):
        pts = []
        for _ in range(4):
            c_lat = float(rng.uniform(-0.01, 0.01))
            c_lon = float(rng.uniform(-0.01, 0.01))
            pts += [GeoPoint(c_lat + float(rng.uniform(-60, 60)) / M_PER_DEG,
                             c_lon + float(rng.uniform(-60, 60)) / M_PER_DEG)
                    for _ in range(110)]
        pts += [GeoPoint(float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.02, 0.02)))
                for _ in range(60)]
        eps, min_pts = 100.0, 5
        clusters = dbscan(pts, eps, min_pts)

        n = len(pts)
        lat = np.radians([p.lat for p in pts])
        lon = np.radians([p.lon for p in pts])
        h = (np.sin((lat[:, None] - lat[None, :]) / 2) ** 2
             + np.cos(lat)[:, None] * np.cos(lat)[None, :]
             * np.sin((lon[:, None] - lon[None, :]) / 2) ** 2)
        dist = 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        core = (dist <= eps).sum(axis=1) >= min_pts
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if core[i] and core[j] and dist[i, j] <= eps:
                    parent[find(i)] = find(j)
        components: dict[int, set] = {}
        for i in range(n):
            if core[i]:
                components.setdefault(find(i), set()).add(i)
        mine = sorted(frozenset(i for i in c.member_indices if core[i]) for c in clusters)
        if mine != sorted(map(frozenset, components.values())):
            dbscan_ok = False
        labeled = set()
        for c in clusters:
            labeled |= set(c.member_indices)
            for i in c.member_indices:
                if not core[i] and not any(core[j] and dist[i, j] <= eps
                                           for j in c.member_indices):
                    dbscan_ok = False
        for i in range(n):
            if i not in labeled and any(core[j] and dist[i, j] <= eps for j in range(n)):
                dbscan_ok = False

    ok = apsp_exact and solve_exact and dbscan_ok
    _report(3, "oracle equivalences", ok,
            f"apsp exact={apsp_exact}, determinization solve exact={solve_exact}, dbscan={dbscan_ok}")
    assert apsp_exact and solve_exact and dbscan_ok


# --------------------------------------------------------------------------
# Criterion 4: hindsight value is a lower bound of the optimal value
# --------------------------------------------------------------------------

def _toy_world():
    def pos(walk_s):
        return {"lat": walk_s * 1.42 / M_PER_DEG, "lon": 0.0}

    doc = {
        "nodes": [
            {"id": "u", "lat": 0.02, "lon": 0.0},
            {"id": "v", "lat": 0.02, "lon": 0.001},
            {"id": "w", "lat": 0.02, "lon": 0.002},
        ],
        "edges": [
            {"id": "e-uv", "from": "u", "to": "v", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e-vw", "from": "v", "to": "w", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e-wu", "from": "w", "to": "u", "length_m": 100.0, "drive_time_s": 30.0},
        ],
        "resources": [
            {"id": "r1", "edge": "e-uv", "offset_s": 10.0, "round_trip_s": 60.0, **pos(50.0)},
            {"id": "r2", "edge": "e-vw", "offset_s": 10.0, "round_trip_s": 60.0, **pos(80.0)},
            {"id": "r3", "edge": "e-wu", "offset_s": 10.0, "round_trip_s": 60.0, **pos(110.0)},
        ],
    }
    return load_graph(doc)


def test_criterion_04_hindsight_lower_bound():
    graph = _toy_world()
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    params = CtmcParams.from_mean_times(600.0, 60.0)
    dest = GeoPoint(0.0, 0.0)
    walks = {rid: walking_time(graph.resources[rid].position, dest) for rid in graph.resources}
    offsets = {rid: graph.resources[rid].offset_s for rid in graph.resources}

    # independent exact solver: value iteration over (node, joint resource states)
    dt = 30.0
    total = params.lam + params.mu
    pi_a = params.mu / total
    decay = math.exp(-total * dt)
    p_aa = pi_a + (1 - pi_a) * decay
    p_oa = pi_a * (1 - decay)

    adjacent = {"u": "r1", "v": "r2", "w": "r3"}
    succ = {"u": "v", "v": "w", "w": "u"}
    rids = ("r1", "r2", "r3")
    states = [(node, bits) for node in "uvw" for bits in
              [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]]
    U = {s: 0.0 for s in states}

    def joint_prob(bits, nxt):
        p = 1.0
        for b, nb in zip(bits, nxt):
            p_avail = p_aa if b else p_oa
            p *= p_avail if nb else 1.0 - p_avail
        return p

    for _ in range(100_000):
        delta = 0.0
        for node, bits in states:
            drive_q = dt
            for nxt in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
                drive_q += joint_prob(bits, nxt) * U[(succ[node], nxt)]
            best = drive_q
            r = adjacent[node]
            if bits[rids.index(r)]:
                best = min(best, offsets[r] + walks[r])
            delta = max(delta, abs(U[(node, bits)] - best))
            U[(node, bits)] = best
        if delta < 1e-10:
            break

    u_star = U[("u", (0, 0, 0))]

    view = PlanningView(ctx, 0.0, np.zeros(3, dtype=bool), params)
    u = ctx.node_index["u"]
    dets = sample_determinizations(view, u, 4000, np.random.default_rng(404))
    costs = np.array([solve_determinization(view, u, d, dest)[1] for d in dets])
    u_hs = float(costs.mean())
    se = float(costs.std(ddof=1) / math.sqrt(len(costs)))

    ok = u_hs <= u_star + 2 * se
    _report(4, "hindsight value lower-bounds the optimum", ok,
            f"mean determinization cost {u_hs:.1f} <= optimal {u_star:.1f} + 2*{se:.2f}")
    assert ok


# --------------------------------------------------------------------------
# Criteria 5-8: the competition study
# --------------------------------------------------------------------------

def competition_world():
    """Frozen evaluation scenario: dead center, turning-over ring, spots on 30 streets."""
    spacing = 440.0
    doc = build_grid_graph_doc(10, 10, spacing_m=spacing, drive_time_s=25.0,
                               n_resources=150, seed=42, round_trip_s=300.0,
                               resource_streets=30)
    graph = load_graph(doc)
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    deg = spacing / 111_194.93
    dest = GeoPoint(4.5 * deg, 4.5 * deg)
    ring = CtmcParams.from_mean_times(538.0, 1345.0)
    dead = CtmcParams.from_mean_times(60.0, 50_000.0)
    overrides = {
        rid: dead
        for rid, r in graph.resources.items()
        if great_circle_m(r.position, dest) <= 3.4 * spacing
    }
    return graph, ctx, dest, ring, overrides


@pytest.fixture(scope="module")
def competition_results():
    graph, ctx, dest, ring, overrides = competition_world()
    results: dict[str, dict[int, list]] = {}
    for kind in PLANNERS:
        per_seed = {}
        for seed in SEEDS:
            agents = [AgentSpec(f"a{i:03d}", "n0009", dest, 7.0, kind) for i in range(20)]
            per_seed[seed] = run_simulation(
                graph, agents, ring, params_by_resource=overrides,
                seed=seed, ctx=ctx, measure_computation=True,
            )
        results[kind] = per_seed
    return results


def _total_parking(results, kind):
    return sum(r.parking_s for seed in SEEDS for r in results[kind][seed])


def _seed_claims(results, kind):
    return {seed: sum(r.unsuccessful_claims for r in results[kind][seed]) for seed in SEEDS}


def test_criterion_05_fleet_reductions(competition_results):
    rpl, rpl_r = _total_parking(competition_results, "rpl"), _total_parking(competition_results, "rpl_r")
    hs = _total_parking(competition_results, "hs")
    hs_r, hs_a = _total_parking(competition_results, "hs_r"), _total_parking(competition_results, "hs_a")
    checks = {
        "RPL+R <= 0.6 RPL": rpl_r <= 0.6 * rpl,
        "HS+R <= 0.8 HS": hs_r <= 0.8 * hs,
        "HS+A <= 0.8 HS": hs_a <= 0.8 * hs,
    }
    detail = (f"rpl_r/rpl={rpl_r / rpl:.3f} (<=0.6), hs_r/hs={hs_r / hs:.3f} (<=0.8), "
              f"hs_a/hs={hs_a / hs:.3f} (<=0.8) over {len(SEEDS)} seeds")
    _report(5, "fleet coordination reduces total parking time", all(checks.values()), detail)
    for name, ok in checks.items():
        assert ok, f"{name}: {detail}"


def test_criterion_06_fewer_unsuccessful_claims(competition_results):
    fractions = {}
    for variant, base in (("rpl_r", "rpl"), ("hs_r", "hs"), ("hs_a", "hs")):
        v, b = _seed_claims(competition_results, variant), _seed_claims(competition_results, base)
        fractions[variant] = sum(v[s] < b[s] for s in SEEDS) / len(SEEDS)
    ok = all(f >= 0.9 for f in fractions.values())
    _report(6, "fleet variants record fewer unsuccessful claims", ok,
            ", ".join(f"{k}: {v:.0%} of seeds" for k, v in fractions.items()) + " (need >=90%)")
    assert ok, fractions


def test_criterion_07_baseline_ordering(competition_results):
    def seed_mean(kind, seed):
        recs = competition_results[kind][seed]
        return sum(r.parking_s for r in recs) / len(recs)

    violations = []
    for baseline in ("random", "heuristic"):
        for kind in INFO_PLANNERS:
            for seed in SEEDS:
                if seed_mean(baseline, seed) < seed_mean(kind, seed):
                    violations.append((baseline, kind, seed,
                                       round(seed_mean(baseline, seed) - seed_mean(kind, seed), 1)))
    ok = not violations
    worst = min((v[3] for v in violations), default=0.0)
    _report(7, "uninformed baselines are never better", ok,
            "no violations" if ok else f"{len(violations)} violations, worst {worst} s; {violations[:4]}")
    assert ok, violations


def test_criterion_08_computation_time_ordering(competition_results):
    med = {}
    for family, kinds in (("replanning", ("rpl", "rpl_r")), ("hindsight", ("hs", "hs_r", "hs_a"))):
        samples = [r.computation_s for k in kinds for s in SEEDS for r in competition_results[k][s]]
        med[family] = float(np.median(samples))
    ok = med["replanning"] < med["hindsight"]
    _report(8, "replanning is cheaper than hindsight planning", ok,
            f"median per trip: replanning {med['replanning'] * 1000:.1f} ms "
            f"< hindsight {med['hindsight'] * 1000:.1f} ms")
    assert ok, med


# --------------------------------------------------------------------------
# Criterion 9: byte-identical batch runs
# --------------------------------------------------------------------------

def test_criterion_09_batch_determinism(tmp_path):
    graph_doc = build_grid_graph_doc(5, 5, n_resources=20, seed=6)
    graph_path = tmp_path / "grid.json"
    graph_path.write_text(json.dumps(graph_doc))
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for kind in ("rpl_r", "hs_a"):
        for seed in (3, 4):
            (cfg_dir / f"{kind}-{seed}.json").write_text(json.dumps({
                "graph": str(graph_path),
                "occupation": {"synthetic": {"lambda_inv_s": 300.0, "mu_inv_s": 900.0}},
                "destinations": {"mode": "single", "destination": [0.0005, 0.0005],
                                 "start_node": "n0000", "agents": 5, "start_time_s": 0.0},
                "planner": {"kind": kind},
                "seed": seed,
                "horizon_s": 3000.0,
                "measure_computation": False,
            }))
    configs = sorted(cfg_dir.glob("*.json"))
    out_a, out_b = tmp_path / "run-a", tmp_path / "run-b"
    run_batch(configs, out_a, parallel=1)
    run_batch(configs, out_b, parallel=1)

    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    identical = files_a == files_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files_a
    )
    _report(9, "batch runs are byte-identical", identical,
            f"{len(files_a)} files compared")
    assert identical


# --------------------------------------------------------------------------
# Criterion 10: reversal and uniqueness property suites
# --------------------------------------------------------------------------

def test_criterion_10_reversal_and_uniqueness():
    rng = np.random.default_rng(1010)

    # ten thousand randomized reservation operations with invariants checked throughout
    n_agents, n_spots = 8, 5
    table = ReservationTable(n_agents)
    held: dict[int, tuple[int, float]] = {}  # the test's own model: agent -> (spot, arrival)
    uniqueness_ok = True
    for _ in range(10_000):
        agent = int(rng.integers(n_agents))
        if rng.random() < 0.25:
            table.cancel(agent)
            held.pop(agent, None)
        else:
            held[agent] = (int(rng.integers(n_spots)), float(rng.uniform(0, 5000)))
            table.place(agent, *held[agent])
        # at most one reservation per agent: each agent's array slot holds exactly its model entry
        if (table.spot.tolist() != [held[a][0] if a in held else -1 for a in range(n_agents)]
                or any(table.arrival[a] != t for a, (_, t) in held.items()) or len(table) != len(held)):
            uniqueness_ok = False
            break

    # ten thousand randomized overlay batches, each reversed to bit-exact state
    params = CtmcParams.from_mean_times(300.0, 900.0)
    overlay = AdaptionOverlay()
    spots = range(n_spots)
    baseline, batch = 0, 1  # owners are agent indices
    beliefs = {i: ResourceBelief(i, A if i % 2 else O, 0.0, params) for i in spots}
    for i in spots:
        overlay.add(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 0.1)), baseline)
    probes = [(int(rng.integers(n_spots)), float(rng.uniform(0, 3000))) for _ in range(10)]
    reversal_ok = True
    reference = [availability_probability(beliefs[i], t, overlay) for i, t in probes]
    for _ in range(10_000):
        n_entries = int(rng.integers(1, 5))
        for _ in range(n_entries):
            overlay.add(int(rng.integers(n_spots)), float(rng.uniform(0, 1000)), float(rng.uniform(0, 0.4)), batch)
        overlay.withdraw(batch)
        now = [availability_probability(beliefs[i], t, overlay) for i, t in probes]
        if now != reference:
            reversal_ok = False
            break

    ok = uniqueness_ok and reversal_ok
    _report(10, "reversal and uniqueness over 10^4 sequences", ok,
            f"reservations={uniqueness_ok}, overlay reversal={reversal_ok}")
    assert uniqueness_ok
    assert reversal_ok
