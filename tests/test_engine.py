import hashlib
import math
import re
import time

import numpy as np
import pytest

from parksearch import engine, fleet
from parksearch.availability import CtmcParams
from parksearch.engine import (
    DEFAULT_CTMC,
    AgentSpec,
    MetricsRecord,
    RESULTS_HEADER,
    OccupationTrace,
    compute_metrics,
    load_trace,
    read_results,
    replay_trace,
    run_simulation,
    save_trace,
    synthesize_occupations,
    write_results,
)
from parksearch.errors import ConfigError, NoPathError, TraceError
from parksearch.geo import EARTH_RADIUS_M, GeoPoint, walking_time
from parksearch.graph import all_pairs_travel_times, load_graph
from parksearch.planners import PLANNER_KINDS, PlannerContext, PlannerSettings
from parksearch.scenario import build_grid_graph_doc

from conftest import trace_from_rows, trace_rows

M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
FROZEN = CtmcParams(1e-9, 1e-9)
A, O = True, False  # the available flag of a trace row


def line_world(n_resources=1):
    doc = {
        "nodes": [
            {"id": "n0", "lat": 0.0, "lon": 0.0},
            {"id": "n1", "lat": 0.0, "lon": 0.001},
            {"id": "n2", "lat": 0.0, "lon": 0.002},
        ],
        "edges": [
            {"id": "e01", "from": "n0", "to": "n1", "length_m": 111.0, "drive_time_s": 30.0},
            {"id": "e10", "from": "n1", "to": "n0", "length_m": 111.0, "drive_time_s": 30.0},
            {"id": "e12", "from": "n1", "to": "n2", "length_m": 111.0, "drive_time_s": 30.0},
            {"id": "e21", "from": "n2", "to": "n1", "length_m": 111.0, "drive_time_s": 30.0},
        ],
        "resources": [
            {"id": "r1", "edge": "e01", "lat": 0.0, "lon": 0.0004, "offset_s": 12.0},
        ][:n_resources],
    }
    return load_graph(doc)


def test_replay_trace_validation():
    ok = trace_from_rows([("r1", 50.0, A), ("r1", 10.0, O)])
    assert replay_trace(ok) is ok
    assert len(ok) == 2 and ok.time.tolist() == [10.0, 50.0]

    with pytest.raises(TraceError, match="non-increasing"):
        replay_trace(trace_from_rows([("r1", 10.0, O), ("r1", 10.0, A)]))
    with pytest.raises(TraceError, match="non-alternating"):
        replay_trace(trace_from_rows([("r1", 10.0, O), ("r1", 20.0, O)]))
    with pytest.raises(TraceError, match="non-alternating"):
        # resources start available: the first flip must change the state
        replay_trace(trace_from_rows([("r1", 10.0, A)]))
    for bad in (math.nan, math.inf, -5.0):
        # a flip at such a time would be dropped by the horizon filter or replayed before time 0
        with pytest.raises(TraceError, match="'r1': event time must be finite and non-negative"):
            replay_trace(trace_from_rows([("r0", 10.0, O), ("r1", bad, O)]))


def oracle_replay(rows, start):
    """The per-flip validator: ``rows`` are ``(id, time, available)`` flips in any order and
    ``start`` maps ids to their start state. Returns the rows in replay order."""
    last_time: dict[str, float] = {}
    last_state: dict[str, bool] = dict(start)
    events = sorted(rows, key=lambda r: (r[1], r[0]))
    for rid, t, up in events:
        if not 0.0 <= t < math.inf:
            raise TraceError(f"resource {rid!r}: event time must be finite and non-negative, got {t}")
        prev_t = last_time.get(rid)
        if prev_t is not None and t <= prev_t:
            raise TraceError(f"non-increasing event times for resource {rid!r} at {t}")
        if up == last_state.get(rid, True):
            raise TraceError(f"non-alternating states for resource {rid!r} at {t}")
        last_time[rid] = t
        last_state[rid] = up
    return events


TRACE_CORRUPTIONS = ("equal time", "repeated state", "first flip equals start", "nan time", "inf time",
                     "negative time", "only a later resource")


def _fuzz_trace(rng):
    """Valid rows over a few resources (integer times, so resources share times), then at most one
    corruption, in file order or shuffled."""
    ids = [f"r{int(i)}" for i in rng.choice(12, size=int(rng.integers(1, 6)), replace=False)]
    start = {rid: bool(rng.random() < 0.5) for rid in ids if rng.random() < 0.7}
    per_res = {}
    for rid in ids:
        up, t, flips = start.get(rid, True), float(rng.integers(0, 3)), []
        for _ in range(int(rng.integers(0, 6))):
            up = not up
            flips.append([rid, t, up])
            t += float(rng.integers(1, 8))
        per_res[rid] = flips
    corruption = None if rng.random() < 0.25 else str(rng.choice(TRACE_CORRUPTIONS))
    flipped = [rid for rid in ids if per_res[rid]]
    if corruption and flipped:
        rid = max(flipped) if corruption == "only a later resource" else str(rng.choice(flipped))
        flips = per_res[rid]
        k = int(rng.integers(len(flips)))
        kind = str(rng.choice(TRACE_CORRUPTIONS[:6])) if corruption == "only a later resource" else corruption
        if kind == "equal time" and k > 0:
            flips[k][1] = flips[k - 1][1]
        elif kind == "repeated state" or kind == "equal time":
            flips[k][2] = not flips[k][2]
        elif kind == "first flip equals start":
            for flip in flips:
                flip[2] = not flip[2]
        else:
            flips[k][1] = {"nan time": math.nan, "inf time": math.inf}.get(kind, -float(rng.integers(1, 5)))
    rows = [tuple(flip) for rid in ids for flip in per_res[rid]]
    if rng.random() < 0.5:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    return rows, start, corruption


def test_replay_trace_matches_per_flip_oracle():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(400):
        rows, start, corruption = _fuzz_trace(rng)
        trace = trace_from_rows(rows, start)
        try:
            expected = oracle_replay(rows, start)
        except TraceError as exc:
            with pytest.raises(TraceError) as got:
                replay_trace(trace)
            named = [re.search(r"resource ('[^']*')", str(e)).group(1) for e in (got.value, exc)]
            assert named[0] == named[1], (rows, start)
            if not any(math.isnan(t) for _, t, _ in rows):  # Python's sort leaves a NaN key where it lies
                assert str(got.value) == str(exc)
            outcomes.add((corruption, "rejected"))
            continue
        assert replay_trace(trace) is trace
        assert trace_rows(trace) == [(rid, t, up) for rid, t, up in expected]
        outcomes.add((corruption, "accepted"))
    assert {(c, "rejected") for c in TRACE_CORRUPTIONS} <= outcomes
    assert (None, "accepted") in outcomes


def test_synthesized_trace_is_pinned():
    # The digest of the object-per-flip synthesis; the columnar one must draw the same stream.
    graph = load_graph(build_grid_graph_doc(50, 50, n_resources=5000, seed=0))
    trace = synthesize_occupations(graph, DEFAULT_CTMC, 7200.0, np.random.default_rng(11))
    digest = hashlib.sha256()
    for rid, up in zip(trace.resources.tolist(), trace.start_up.tolist()):
        digest.update(f"{rid},{up}\n".encode())
    for rid, t, up in trace_rows(trace):
        digest.update(f"{rid},{t.hex()},{up}\n".encode())
    assert len(trace) == 32566
    assert digest.hexdigest() == "dacd73fead57e86fa52e23c3da2d1147bc8615e4feae1dc358c6625d7b9e96bd"


def test_single_agent_parks_with_exact_times():
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    spec = AgentSpec("a0", "n0", dest, 0.0, "rpl")
    records = run_simulation(graph, [spec], OccupationTrace(), params=FROZEN,
                             measure_computation=False)
    rec = records[0]
    assert rec.status == "parked"
    assert rec.parked_resource == "r1"
    assert rec.unsuccessful_claims == 0
    walk = walking_time(graph.resources["r1"].position, dest)
    assert rec.total_trip_s == pytest.approx(12.0 + walk)  # offset drive plus walk
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    assert rec.taxi_s == pytest.approx(ctx.taxi_time(spec.start_node, spec.destination))
    assert rec.parking_s == pytest.approx(rec.total_trip_s - rec.taxi_s)


def test_two_agent_race_one_winner():
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    agents = [AgentSpec(f"a{i}", "n0", dest, 0.0, "rpl") for i in range(2)]
    records = run_simulation(graph, agents, OccupationTrace(), params=FROZEN,
                             horizon_s=600.0, measure_computation=False)
    by_id = {r.agent_id: r for r in records}
    assert by_id["a0"].status == "parked"  # equal claims resolve to the lower agent id
    assert by_id["a0"].unsuccessful_claims == 0
    assert by_id["a1"].status == "timed_out"  # only one resource in this world
    assert by_id["a1"].unsuccessful_claims >= 1
    assert by_id["a1"].total_trip_s == 600.0


def test_trace_flip_suppressed_while_fleet_occupied():
    # r1 starts occupied per trace, frees at t=5; a0 parks on it; the trace
    # then reporting occupied/available again must not evict the fleet car.
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    trace = trace_from_rows([("r1", 5.0, A), ("r1", 40.0, O), ("r1", 60.0, A)], {"r1": O})
    agents = [
        AgentSpec("a0", "n0", dest, 0.0, "rpl"),
        AgentSpec("a1", "n0", dest, 70.0, "rpl"),  # starts after the trace frees r1 again
    ]
    records = run_simulation(graph, agents, trace, params=FROZEN, horizon_s=400.0,
                             measure_computation=False)
    by_id = {r.agent_id: r for r in records}
    assert by_id["a0"].status == "parked"
    assert by_id["a1"].status == "timed_out"
    assert by_id["a1"].unsuccessful_claims >= 1


def test_fully_observable_view_sees_flips_at_decision_time():
    # r1 is occupied until exactly t=0; the flip is processed before the
    # agent's spawn decision, so the replanner targets it immediately.
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    trace = trace_from_rows([("r1", 0.0, A)], {"r1": O})
    records = run_simulation(graph, [AgentSpec("a0", "n0", dest, 0.0, "rpl")], trace,
                             params=FROZEN, measure_computation=False)
    assert records[0].status == "parked"
    assert records[0].total_trip_s == pytest.approx(
        12.0 + walking_time(graph.resources["r1"].position, dest))


def test_timeout_inclusion_rule():
    graph = line_world()
    trace = trace_from_rows([], {"r1": O})
    records = run_simulation(graph, [AgentSpec("a0", "n0", GeoPoint(0.0, 0.001), 0.0, "rpl")],
                             trace, params=FROZEN, horizon_s=7200.0, measure_computation=False)
    assert records[0].status == "timed_out"
    assert records[0].total_trip_s == 7200.0
    assert records[0].parking_s == pytest.approx(7200.0 - records[0].taxi_s)


@pytest.mark.parametrize("kind", PLANNER_KINDS)
def test_graph_without_spots(kind):
    """Planning kinds report that no spot is reachable; the baselines search until the horizon."""
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=0))
    agents = [AgentSpec("a0", "n0000", GeoPoint(0.001, 0.001), 0.0, kind)]
    if kind in ("random", "heuristic"):
        records = run_simulation(graph, agents, OccupationTrace(), params=FROZEN, horizon_s=600.0,
                                 measure_computation=False)
        assert records[0].status == "timed_out"
    else:
        with pytest.raises(NoPathError, match="no resource reachable from 'n0000'"):
            run_simulation(graph, agents, OccupationTrace(), params=FROZEN, horizon_s=600.0,
                           measure_computation=False)


def test_synthesize_occupations_properties(default_params):
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=30, seed=1))
    t1 = synthesize_occupations(graph, default_params, 5000.0, np.random.default_rng(5))
    t2 = synthesize_occupations(graph, default_params, 5000.0, np.random.default_rng(5))
    assert trace_rows(t1) == trace_rows(t2) and np.array_equal(t1.start_up, t2.start_up)
    assert t1.resources.tolist() == sorted(graph.resources)
    replay_trace(t1)  # valid by construction

    tiny = synthesize_occupations(graph, CtmcParams(1e-9, 1e-9), 10.0, np.random.default_rng(2))
    assert len(tiny) == 0  # horizon far below any sojourn


def test_synthesize_respects_per_resource_rates():
    graph = load_graph(build_grid_graph_doc(3, 3, n_resources=20, seed=2))
    rids = list(graph.resources)
    dead = CtmcParams.from_mean_times(60.0, 1e9)
    overrides = {rids[0]: dead}
    trace = synthesize_occupations(graph, CtmcParams.from_mean_times(120.0, 120.0), 20_000.0,
                                   np.random.default_rng(3), overrides)
    flips = {}
    for rid, _, _ in trace_rows(trace):
        flips[rid] = flips.get(rid, 0) + 1
    # the dead resource flips at most once (losing its rare initial availability)
    assert flips.get(rids[0], 0) <= 1
    assert sum(flips.values()) > 100


class _BoundedDraws:
    """A generator stand-in that fails after 1,000 sojourn draws, so a synthesis that never ends fails."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.draws = 0

    def random(self):
        return self.rng.random()

    def exponential(self, scale):
        self.draws += 1
        if self.draws > 1000:
            raise AssertionError("synthesis did not stop")
        return self.rng.exponential(scale)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_bad_horizon_is_rejected(horizon, monkeypatch):
    graph = line_world()
    with pytest.raises(ConfigError, match="horizon_s"):
        synthesize_occupations(graph, DEFAULT_CTMC, horizon, _BoundedDraws())

    def never(*args, **kwargs):
        raise AssertionError("synthesized before the horizon was checked")

    monkeypatch.setattr(engine, "synthesize_occupations", never)
    # with no agents a run that skipped the check would return at once instead of raising
    for occupation in (DEFAULT_CTMC, OccupationTrace()):
        with pytest.raises(ConfigError, match="horizon_s"):
            run_simulation(graph, [], occupation, horizon_s=horizon)


def test_unknown_override_resource_rejected():
    graph = line_world()
    agents = [AgentSpec("a0", "n0", GeoPoint(0.0, 0.001), 0.0, "rpl")]
    overrides = {"zz": DEFAULT_CTMC, "r1": DEFAULT_CTMC, "ab": DEFAULT_CTMC}
    for occupation in (DEFAULT_CTMC, OccupationTrace()):
        with pytest.raises(ConfigError, match="params_by_resource: unknown resource 'ab'"):
            run_simulation(graph, agents, occupation, params_by_resource=overrides)


def _memo_world():
    """A fresh graph object (so no earlier run's trace can be reused), its context and destination."""
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=12, seed=5))
    return graph, PlannerContext(graph, all_pairs_travel_times(graph)), GeoPoint(0.002, 0.002)


def _count_syntheses(monkeypatch):
    """Record every trace ``run_simulation`` synthesizes; the list's length counts the syntheses."""
    original = engine.synthesize_occupations
    traces = []

    def counted(*args, **kwargs):
        traces.append(original(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(engine, "synthesize_occupations", counted)
    return traces


def _seed_major(graph, ctx, dest, seeds, tmp_path, tag):
    """Every kind on each seed before the next seed; the bytes of each run's results file."""
    out = {}
    for seed in seeds:
        for kind in PLANNER_KINDS:
            agents = [AgentSpec(f"a{i}", "n0000", dest, 10.0 * i, kind) for i in range(3)]
            records = run_simulation(graph, agents, CtmcParams.from_mean_times(200.0, 600.0), seed=seed,
                                     horizon_s=1500.0, ctx=ctx, settings=PlannerSettings(determinizations=10),
                                     measure_computation=False)
            path = tmp_path / f"{tag}-{seed}-{kind}.csv"
            write_results(path, records)
            out[seed, kind] = path.read_bytes()
    return out


def test_kinds_on_one_seed_share_one_synthesis(monkeypatch, tmp_path):
    traces = _count_syntheses(monkeypatch)
    _seed_major(*_memo_world(), [1], tmp_path, "first")
    assert len(traces) == 1
    _seed_major(*_memo_world(), [1, 2], tmp_path, "again")
    assert len(traces) == 3  # a new graph object misses; every later seed synthesizes once


def test_reused_trace_gives_the_results_of_a_fresh_one(monkeypatch, tmp_path):
    traces = _count_syntheses(monkeypatch)
    shared = _seed_major(*_memo_world(), [4], tmp_path, "shared")
    assert len(traces) == 1
    for kind in PLANNER_KINDS:  # a fresh graph object per run: the memo must miss
        fresh = _seed_major(*_memo_world(), [4], tmp_path, f"fresh-{kind}")
        assert fresh[4, kind] == shared[4, kind], kind
    assert len(traces) == 1 + len(PLANNER_KINDS)


def test_any_changed_key_part_synthesizes_again(monkeypatch):
    traces = _count_syntheses(monkeypatch)
    graph, _, dest = _memo_world()
    rates = CtmcParams.from_mean_times(200.0, 600.0)
    rid = sorted(graph.resources)[0]
    base = {"params_by_resource": {rid: rates}, "horizon_s": 900.0, "seed": 3}

    def run(graph=graph, occupation=rates, n_agents=2, **changed):
        agents = [AgentSpec(f"a{i}", "n0000", dest, 0.0, "rpl") for i in range(n_agents)]
        run_simulation(graph, agents, occupation, measure_computation=False, **{**base, **changed})
        return len(traces)

    assert run() == 1
    assert run(n_agents=5) == 1  # the trace's random stream does not depend on the number of agents
    for changed in ({"graph": load_graph(build_grid_graph_doc(4, 4, n_resources=12, seed=5))},
                    {"occupation": CtmcParams.from_mean_times(200.0, 601.0)},
                    {"params_by_resource": {rid: CtmcParams.from_mean_times(50.0, 600.0)}},
                    {"params_by_resource": None},
                    {"horizon_s": 901.0},
                    {"seed": 4}):
        count = len(traces)
        assert run(**changed) == count + 1, changed
        assert run() == count + 2, changed  # one entry only: going back synthesizes again
        assert run() == count + 2


def test_reused_trace_is_read_only(monkeypatch):
    traces = _count_syntheses(monkeypatch)
    graph, ctx, dest = _memo_world()
    run_simulation(graph, [AgentSpec("a0", "n0000", dest, 0.0, "rpl")], DEFAULT_CTMC, seed=1, ctx=ctx)
    (trace,) = traces
    for column in (trace.resources, trace.start_up, trace.time, trace.spot, trace.up):
        assert not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trace.time[0] = 0.0


def test_taxi_time_examples():
    graph = line_world()
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    # destination exactly at node n1: pure drive time
    spec = AgentSpec("a", "n0", GeoPoint(0.0, 0.001), 0.0, "rpl")
    assert ctx.taxi_time(spec.start_node, spec.destination) == pytest.approx(30.0)
    # destination at the start node: zero
    spec0 = AgentSpec("a", "n0", GeoPoint(0.0, 0.0), 0.0, "rpl")
    assert ctx.taxi_time(spec0.start_node, spec0.destination) == 0.0
    # brute force over candidate drop-off nodes
    dest = GeoPoint(0.0005, 0.0013)
    spec2 = AgentSpec("a", "n0", dest, 0.0, "rpl")
    brute = min(
        ctx.drive_time("n0", v) + walking_time(graph.nodes[v].position, dest) for v in graph.nodes
    )
    assert ctx.taxi_time(spec2.start_node, spec2.destination) == brute


def test_compute_metrics_arithmetic():
    records = [
        MetricsRecord("a0", "rpl", 600.0, 480.0, 120.0, 1, 0.010, "r1", "parked"),
        MetricsRecord("a1", "rpl", 7200.0, 300.0, 6900.0, 4, 0.020, None, "timed_out"),
        MetricsRecord("a2", "hs", 500.0, 200.0, 300.0, 0, 0.500, "r2", "parked"),
        MetricsRecord("a3", "hs", 300.0, 200.0, 100.0, 0, 0.700, "r3", "parked"),
    ]
    stats = compute_metrics(records)
    assert stats["rpl"]["mean_parking_s"] == pytest.approx((120.0 + 6900.0) / 2)
    assert stats["rpl"]["total_unsuccessful_claims"] == 5
    assert stats["rpl"]["timed_out"] == 1
    assert stats["hs"]["mean_parking_s"] == pytest.approx(200.0)
    assert stats["hs"]["median_computation_ms"] == pytest.approx(600.0)


def test_results_roundtrip(tmp_path):
    records = [
        MetricsRecord("a0", "rpl", 600.125, 480.25, 119.875, 1, 0.0105, "r1", "parked"),
        MetricsRecord("a1", "hs_a", 7200.0, 300.0, 6900.0, 4, 0.0207, None, "timed_out"),
    ]
    path = tmp_path / "out.results.csv"
    write_results(path, records)
    back = read_results(path)
    assert [r.agent_id for r in back] == ["a0", "a1"]
    assert back[0].total_trip_s == pytest.approx(600.125, abs=1e-3)
    assert back[1].parked_resource is None
    assert back[1].status == "timed_out"
    with pytest.raises(ConfigError):
        path2 = tmp_path / "bad.csv"
        path2.write_text("nope\n")
        read_results(path2)


@pytest.mark.parametrize("row, problem", [
    ("a0,rpl,600.0,480.0", "expected 9 columns, got 4"),
    ("a0,rpl,600.0,480.0,120.0,one,0.0,r1,parked", "invalid literal for int"),
])
def test_malformed_results_row_names_file_and_line(tmp_path, row, problem):
    path = tmp_path / "bad.results.csv"
    path.write_text(",".join(RESULTS_HEADER) + "\na1,rpl,600.0,480.0,120.0,0,0.0,r1,parked\n" + row + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path} line 3: {problem}")):
        read_results(path)


def test_trace_file_roundtrip(tmp_path):
    graph = load_graph(build_grid_graph_doc(3, 3, n_resources=10, seed=4))
    trace = synthesize_occupations(graph, CtmcParams.from_mean_times(50.0, 80.0), 600.0,
                                   np.random.default_rng(9))
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    header = path.read_text().splitlines()[0]
    assert header == "resource_id,time_s,state"
    loaded = load_trace(path)  # validates monotonicity and alternation
    # occupied initial states are encoded as flips at t = 0
    t0 = {rid for rid, t, _ in trace_rows(loaded) if t == 0.0}
    occupied_initially = set(trace.resources[~trace.start_up].tolist())
    assert t0 == occupied_initially

    bad = tmp_path / "bad.csv"
    for row in ("r1,10,weird", "r1,nan,occupied", "r1,inf,occupied", "r1,-5,occupied"):
        bad.write_text(f"resource_id,time_s,state\nr0,5,occupied\n{row}\n")
        with pytest.raises(TraceError, match="line 3"):
            load_trace(bad)


def test_determinism_byte_identical(tmp_path):
    graph = load_graph(build_grid_graph_doc(5, 5, n_resources=20, seed=6))
    dest = GeoPoint(0.0005, 0.0005)
    agents = [AgentSpec(f"a{i}", "n0000", dest, 0.0, k)
              for i, k in enumerate(["rpl", "hs", "random"])]
    params = CtmcParams.from_mean_times(300.0, 900.0)
    paths = []
    for run in range(2):
        records = run_simulation(graph, agents, params, seed=123, measure_computation=False)
        p = tmp_path / f"run{run}.csv"
        write_results(p, records)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_conservation_and_no_teleport():
    graph = load_graph(build_grid_graph_doc(5, 5, n_resources=15, seed=8))
    dest = GeoPoint(0.001, 0.001)
    agents = [AgentSpec(f"a{i:02d}", "n0000", dest, 0.0, "rpl") for i in range(5)]
    params = CtmcParams.from_mean_times(200.0, 600.0)
    records, events = run_simulation(graph, agents, params, seed=3, horizon_s=3000.0,
                                     measure_computation=False, collect_events=True)
    assert len(records) == 5
    assert all(r.status in ("parked", "timed_out") for r in records)

    visits = {}
    for ev in events:
        if ev.kind in ("agent_spawn", "agent_at_node"):
            visits.setdefault(ev.agent, []).append((ev.time, ev.node))
    for agent, seq in visits.items():
        for (t1, n1), (t2, n2) in zip(seq, seq[1:]):
            connecting = [
                e for e in graph.edges.values()
                if e.from_node == n1 and e.to_node == n2
                and abs((t1 + e.drive_time_s) - t2) < 1e-9
            ]
            assert connecting, f"{agent} teleported {n1} -> {n2}"


def test_unknown_trace_resource_rejected():
    graph = line_world()
    trace = trace_from_rows([("ghost", 5.0, O)])
    with pytest.raises(TraceError):
        run_simulation(graph, [AgentSpec("a0", "n0", GeoPoint(0.0, 0.001), 0.0, "rpl")],
                       trace, params=FROZEN)


def test_agent_validation():
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    with pytest.raises(ConfigError):
        run_simulation(graph, [AgentSpec("a", "nope", dest, 0.0, "rpl")], OccupationTrace())
    with pytest.raises(ConfigError):
        run_simulation(graph, [AgentSpec("a", "n0", dest, -5.0, "rpl")], OccupationTrace())
    for start in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="agent 'a': start time"):
            run_simulation(graph, [AgentSpec("a", "n0", dest, start, "rpl")], OccupationTrace())
    with pytest.raises(ConfigError):
        run_simulation(graph, [AgentSpec("a", "n0", dest, 0.0, "warp")], OccupationTrace())
    with pytest.raises(ConfigError):
        run_simulation(graph, [AgentSpec("a", "n0", dest, 0.0, "rpl")] * 2, OccupationTrace())


def test_fleet_reservation_spreads_identical_cohort():
    # Two agents, two equally good resources: with reservations the second
    # agent diverts instead of racing and losing.
    doc = {
        "nodes": [
            {"id": "n0", "lat": 0.0, "lon": 0.0},
            {"id": "n1", "lat": 0.0, "lon": 0.001},
            {"id": "n2", "lat": 0.001, "lon": 0.0},
        ],
        "edges": [
            {"id": "e01", "from": "n0", "to": "n1", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e02", "from": "n0", "to": "n2", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e10", "from": "n1", "to": "n0", "length_m": 100.0, "drive_time_s": 30.0},
            {"id": "e20", "from": "n2", "to": "n0", "length_m": 100.0, "drive_time_s": 30.0},
        ],
        "resources": [
            {"id": "ra", "edge": "e01", "lat": 0.0, "lon": 0.0005, "offset_s": 10.0},
            {"id": "rb", "edge": "e02", "lat": 0.0005, "lon": 0.0, "offset_s": 10.0},
        ],
    }
    graph = load_graph(doc)
    dest = GeoPoint(0.0, 0.0005)  # at ra's position: ra is the better spot
    agents = [AgentSpec(f"a{i}", "n0", dest, 0.0, "rpl_r") for i in range(2)]
    records = run_simulation(graph, agents, OccupationTrace(), params=FROZEN,
                             measure_computation=False)
    by_id = {r.agent_id: r for r in records}
    assert by_id["a0"].parked_resource == "ra"
    assert by_id["a1"].parked_resource == "rb"  # blocked by a0's equal-arrival reservation
    assert by_id["a1"].unsuccessful_claims == 0

    # without reservations both race ra and a1 wastes a claim
    agents_plain = [AgentSpec(f"a{i}", "n0", dest, 0.0, "rpl") for i in range(2)]
    plain = {r.agent_id: r for r in run_simulation(graph, agents_plain, OccupationTrace(),
                                                   params=FROZEN, measure_computation=False)}
    assert plain["a1"].unsuccessful_claims >= 1


def test_static_world_replanning_reduces_to_best_candidate():
    # with every resource permanently available, one replanning agent parks at
    # the brute-force argmin of drive + walk and pays exactly that much
    rng = np.random.default_rng(55)
    graph = load_graph(build_grid_graph_doc(5, 5, spacing_m=180.0, drive_time_s=15.0,
                                            n_resources=12, seed=9))
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    dest = GeoPoint(0.0008, 0.0011)
    spec = AgentSpec("a0", "n0000", dest, 0.0, "rpl")
    records = run_simulation(graph, [spec], OccupationTrace(), params=FROZEN,
                             measure_computation=False)

    best_rid, best_cost = None, np.inf
    for rid, r in graph.resources.items():
        cost = (ctx.drive_time("n0000", graph.edges[r.edge_id].from_node) + r.offset_s
                + walking_time(r.position, dest))
        if cost < best_cost:
            best_rid, best_cost = rid, cost
    rec = records[0]
    assert rec.status == "parked"
    assert rec.parked_resource == best_rid
    assert rec.total_trip_s == pytest.approx(best_cost, rel=1e-9)
    assert rec.unsuccessful_claims == 0


def test_flips_apply_before_claims_and_arrivals_at_equal_time():
    # a0 decides at t=0 to claim r1 at t=12; the trace takes r1 at exactly t=12,
    # so the claim fails. a0 drives on to n1 (t=30) and back to n0, arriving at
    # t=60 exactly when the trace frees r1 again, and parks at t=72.
    graph = line_world()
    dest = GeoPoint(0.0, 0.001)
    trace = trace_from_rows([("r1", 12.0, O), ("r1", 60.0, A)])
    records, log = run_simulation(graph, [AgentSpec("a0", "n0", dest, 0.0, "rpl")], trace,
                                  params=FROZEN, horizon_s=600.0, measure_computation=False,
                                  collect_events=True)
    assert records[0].unsuccessful_claims == 1
    assert records[0].status == "parked"
    assert records[0].total_trip_s == pytest.approx(72.0 + walking_time(graph.resources["r1"].position, dest))
    at = [(ev.time, ev.kind, ev.detail) for ev in log if ev.time in (12.0, 60.0)]
    assert at == [
        (12.0, "resource_flip", "occupied"),
        (12.0, "agent_claim", "failed"),
        (60.0, "resource_flip", "available"),
        (60.0, "agent_at_node", None),
    ]


def test_event_log_order():
    graph = load_graph(build_grid_graph_doc(5, 5, n_resources=15, seed=8))
    agents = [AgentSpec(f"a{i:02d}", "n0000", GeoPoint(0.001, 0.001), 10.0 * i, "rpl") for i in range(5)]
    _, log = run_simulation(graph, agents, CtmcParams.from_mean_times(200.0, 600.0), seed=3,
                            horizon_s=3000.0, measure_computation=False, collect_events=True)
    rank = {"resource_flip": 0, "agent_claim": 1, "agent_spawn": 2, "agent_at_node": 2}
    for a, b in zip(log, log[1:]):
        assert (a.time, rank[a.kind]) <= (b.time, rank[b.kind])
    # the trace keeps replaying after the last agent event
    last_agent = max(i for i, ev in enumerate(log) if ev.agent is not None)
    assert any(ev.kind == "resource_flip" for ev in log[last_agent:])
    assert log[-1].time <= 3000.0

    # the exact record order is pinned, flips between agent events included
    text = "\n".join(repr((ev.time, ev.kind, ev.agent, ev.node, ev.resource, ev.detail)) for ev in log)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a07e5cfc3ae5a00e9466dbae99b1493a4ee581b3c08ca54e572a7039cc2e8d91")


def test_fleet_holds_nothing_after_a_mixed_run(monkeypatch):
    # every kind in one run: agents that park and agents that time out both withdraw what they shared
    fleets, peak = [], {"reservations": 0, "overlay": 0}

    class Captured(fleet.Fleet):
        def __init__(self, settings):
            super().__init__(settings)
            fleets.append(self)

        def publish(self, *args):
            super().publish(*args)
            peak["reservations"] = max(peak["reservations"], len(self.reservations))
            peak["overlay"] = max(peak["overlay"], len(self.overlay))

    monkeypatch.setattr(engine, "Fleet", Captured)
    graph = load_graph(build_grid_graph_doc(6, 6, n_resources=20, seed=3))
    agents = [AgentSpec(f"a{i:02d}", "n0000", GeoPoint(0.002, 0.002), 5.0 * i, PLANNER_KINDS[i % 7])
              for i in range(14)]
    records = run_simulation(graph, agents, CtmcParams.from_mean_times(200.0, 600.0), seed=2, horizon_s=500.0,
                             settings=PlannerSettings(determinizations=10), measure_computation=False)
    outcomes = {(r.planner, r.status) for r in records}
    assert {(kind, status) for kind in ("rpl_r", "hs_r", "hs_a") for status in ("parked", "timed_out")} <= outcomes
    assert peak["reservations"] > 0 and peak["overlay"] > 0
    (captured,) = fleets
    assert len(captured.reservations) == 0
    assert not captured.overlay and len(captured.overlay) == 0


def test_hs_a_computation_includes_adaption(monkeypatch):
    # every adaption call is padded by 5 ms; the agents' reported planner time must cover it
    original = fleet.adapt_probabilities
    calls = []

    def padded(*args, **kwargs):
        calls.append(1)
        time.sleep(0.005)
        return original(*args, **kwargs)

    monkeypatch.setattr(fleet, "adapt_probabilities", padded)
    graph = load_graph(build_grid_graph_doc(4, 4, n_resources=10, seed=1))
    agents = [AgentSpec(f"a{i}", "n0000", GeoPoint(0.002, 0.002), 0.0, "hs_a") for i in range(2)]
    records = run_simulation(graph, agents, CtmcParams.from_mean_times(200.0, 600.0), seed=1,
                             horizon_s=3000.0, settings=PlannerSettings(determinizations=10))
    assert calls
    assert sum(r.computation_s for r in records) >= 0.005 * len(calls)


def test_only_sharing_kinds_publish_and_every_agent_is_timed(monkeypatch):
    # the mixed-1 golden world: 28 agents of all seven kinds share one run's fleet
    from test_acceptance import competition_world

    original = fleet.Fleet.publish
    published = []

    def counted(self, view, *args):
        published.append(view.agent_id)
        return original(self, view, *args)

    monkeypatch.setattr(fleet.Fleet, "publish", counted)
    graph, ctx, dest, ring, overrides = competition_world()
    agents = [AgentSpec(f"a{i:03d}", "n0009", dest, 7.0 + 3.0 * (i % 4), PLANNER_KINDS[i % 7])
              for i in range(28)]
    records = run_simulation(graph, agents, ring, params_by_resource=overrides, seed=1, ctx=ctx,
                             measure_computation=True)
    # every agent of the three sharing kinds publishes, and no other agent does
    assert set(published) == {a.id for a in agents if a.planner in ("rpl_r", "hs_r", "hs_a")}
    assert all(r.computation_s > 0.0 for r in records), [r.agent_id for r in records if r.computation_s <= 0.0]
