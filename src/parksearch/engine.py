"""Deterministic discrete-event simulation of agents competing for resources.

Resource states evolve by replaying an occupation trace (recorded or
synthesized from the availability process); agents decide at intersections,
claim resources at their exact arrival position on the edge. The engine keeps
one availability array: a spot a fleet agent parked on stays occupied for the
rest of the run, and later trace flips for it are skipped.

Resource flips are not queued: the validated trace is already in replay
order, so the engine merges it into the event queue, applying every flip up
to the time of the next queued claim or agent event before taking that
event. Event ordering at equal timestamps is fixed (resource flips, then
claim resolutions, then agent decisions in agent-id order), which makes
every run a pure function of its configuration and seed.
"""

from __future__ import annotations

import csv
import heapq
import math
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .availability import AvailabilityRates, CtmcParams, expected_wait_times_rates, stationary_availability
from .errors import ConfigError, ParkSearchError, TraceError
from .fleet import Fleet
from .geo import GeoPoint, walking_time
from .graph import RoadGraph, all_pairs_travel_times
from .planners import (
    PlannerContext,
    PlannerSettings,
    PlanningView,
    TakeRoad,
    check_number,
    make_policy,
    PLANNERS,
)

DEFAULT_HORIZON_S = 7200.0
DEFAULT_CTMC = CtmcParams.from_mean_times(120.0, 2091.0)

_RANK_CLAIM = 1
_RANK_AGENT = 2

RESULTS_HEADER = [
    "agent_id", "planner", "total_trip_s", "taxi_s", "parking_s",
    "unsuccessful_claims", "computation_ms", "parked_resource", "status",
]


@dataclass(frozen=True, eq=False)
class OccupationTrace:
    """State flips of resources, as columns; with no arguments, a trace without flips.

    ``resources`` are the sorted ids and ``start_up`` whether each starts available
    (resources the trace does not list start available). Flip ``k`` sets
    ``resources[spot[k]]`` to available (``up[k]``) or occupied at ``time[k]``;
    construction puts the flips in replay order: by time, then resource id.
    """

    resources: np.ndarray = ()
    start_up: np.ndarray = ()
    time: np.ndarray = ()
    spot: np.ndarray = ()
    up: np.ndarray = ()

    def __post_init__(self) -> None:
        resources = np.asarray(self.resources, dtype=str)
        time = np.asarray(self.time, dtype=float)
        spot = np.asarray(self.spot, dtype=np.intp)
        if np.any(resources[1:] <= resources[:-1]):
            raise ValueError("trace resource ids must be sorted and unique")
        if (len(self.start_up) != len(resources) or not len(time) == len(spot) == len(self.up)
                or np.any((spot < 0) | (spot >= len(resources)))):
            raise ValueError("trace columns differ in length or a flip names no listed resource")
        order = np.lexsort((spot, time))
        columns = {"resources": resources, "start_up": np.asarray(self.start_up, dtype=bool),
                   "time": time[order], "spot": spot[order], "up": np.asarray(self.up, dtype=bool)[order]}
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.time)


def replay_trace(trace: OccupationTrace) -> OccupationTrace:
    """Validate the trace and return it; its flips are already in replay order.

    Every flip time must be finite and non-negative, each resource's times must
    strictly increase and its flips must change its state. The error names the
    resource of the first offending flip in replay order.
    """
    time, spot, up = trace.time, trace.spot, trace.up
    bad_time = ~((time >= 0.0) & (time < math.inf))
    # each resource's flips in time order, next to the flip before it (or its start state)
    by_res = np.argsort(spot, kind="stable")
    s, t, u = spot[by_res], time[by_res], up[by_res]
    same = np.r_[False, s[1:] == s[:-1]]
    stale, repeat = np.zeros((2, len(s)), dtype=bool)
    stale[by_res] = same & (t <= np.r_[-math.inf, t[:-1]])
    repeat[by_res] = u == np.where(same, np.r_[False, u[:-1]], trace.start_up[s])
    bad = bad_time | stale | repeat
    if bad.any():
        k = int(np.argmax(bad))
        rid, at = str(trace.resources[spot[k]]), float(time[k])
        if bad_time[k]:
            raise TraceError(f"resource {rid!r}: event time must be finite and non-negative, got {at}")
        if stale[k]:
            raise TraceError(f"non-increasing event times for resource {rid!r} at {at}")
        raise TraceError(f"non-alternating states for resource {rid!r} at {at}")
    return trace


def synthesize_occupations(
    graph: RoadGraph,
    params: CtmcParams,
    horizon_s: float,
    rng: np.random.Generator,
    params_by_resource: dict[str, CtmcParams] | None = None,
) -> OccupationTrace:
    """Sample sojourn times for every resource out to the horizon.

    Initial states are drawn from the long-run distribution, then each
    resource alternates exponentially distributed available and occupied
    stretches. ``params_by_resource`` overrides the global rates per resource.
    """
    horizon_s = check_number(horizon_s, "horizon_s")
    overrides = params_by_resource or {}
    resources = sorted(graph.resources)
    slot = {rid: i for i, rid in enumerate(resources)}
    start_up = np.empty(len(resources), dtype=bool)
    time, spot, up = [], [], []
    for rid in graph.resources:  # in graph order, which fixes the random stream
        p = overrides.get(rid, params)
        available = bool(rng.random() < stationary_availability(p))
        start_up[slot[rid]] = available
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / (p.lam if available else p.mu)))
            if t >= horizon_s:
                break
            available = not available
            time.append(t)
            spot.append(slot[rid])
            up.append(available)
    return OccupationTrace(resources, start_up, time, spot, up)


def load_trace(path: str | Path) -> OccupationTrace:
    """Read a ``resource_id,time_s,state`` table; resources start available."""
    ids, time, up = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["resource_id", "time_s", "state"]:
            raise TraceError(f"bad trace header: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise TraceError(f"line {lineno}: expected 3 columns")
            rid, time_s, state = row
            try:
                t = float(time_s)
            except ValueError:
                t = math.nan
            if not 0.0 <= t < math.inf:
                raise TraceError(f"line {lineno}: bad time {time_s!r}, need finite non-negative seconds")
            if state not in ("available", "occupied"):
                raise TraceError(f"line {lineno}: bad state {state!r}")
            ids.append(rid)
            time.append(t)
            up.append(state == "available")
    resources, spot = np.unique(np.asarray(ids, dtype=str), return_inverse=True)
    trace = OccupationTrace(resources, np.ones(len(resources), dtype=bool), time, spot, up)
    replay_trace(trace)
    return trace


def save_trace(path: str | Path, trace: OccupationTrace) -> None:
    """Write a trace at 1-second resolution.

    Flip times are floored to whole seconds (bumped forward where flooring
    would collide) and initially occupied resources are encoded as flips at
    time 0, so a reloaded trace replays the same state sequence.
    """
    lead = np.flatnonzero(~trace.start_up)
    spot = np.concatenate([lead, trace.spot])
    time = np.concatenate([np.zeros(len(lead)), trace.time])
    up = np.concatenate([np.zeros(len(lead), dtype=bool), trace.up])
    by_res = np.argsort(spot, kind="stable")  # each resource's flips in time order
    rows: list[tuple[int, int, bool]] = []
    prev_spot, prev = -1, -1
    for s, t, u in zip(spot[by_res].tolist(), time[by_res].tolist(), up[by_res].tolist()):
        prev = max(prev + 1 if s == prev_spot else 0, int(t))
        prev_spot = s
        rows.append((prev, s, u))
    rows.sort()  # by second, then resource id
    ids = trace.resources.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resource_id", "time_s", "state"])
        writer.writerows((ids[s], t, "available" if u else "occupied") for t, s, u in rows)


@dataclass(frozen=True)
class AgentSpec:
    id: str
    start_node: str
    destination: GeoPoint
    start_time: float
    planner: str


@dataclass
class AgentRuntime:
    spec: AgentSpec
    rng: np.random.Generator
    status: str = "driving"
    node: str | None = None
    unsuccessful_claims: int = 0
    computation_s: float = 0.0
    parked_resource: str | None = None
    park_time: float | None = None
    walk_s: float = 0.0


@dataclass(frozen=True)
class MetricsRecord:
    agent_id: str
    planner: str
    total_trip_s: float
    taxi_s: float
    parking_s: float
    unsuccessful_claims: int
    computation_s: float
    parked_resource: str | None
    status: str


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str
    agent: str | None = None
    node: str | None = None
    resource: str | None = None
    detail: str | None = None


def _validate_agents(graph: RoadGraph, agents: Iterable[AgentSpec]) -> list[AgentSpec]:
    specs = sorted(agents, key=lambda a: a.id)
    seen: set[str] = set()
    for spec in specs:
        if spec.id in seen:
            raise ConfigError(f"duplicate agent id {spec.id!r}")
        seen.add(spec.id)
        if spec.start_node not in graph.nodes:
            raise ConfigError(f"agent {spec.id!r}: unknown start node {spec.start_node!r}")
        if not 0.0 <= spec.start_time < math.inf:
            raise ConfigError(f"agent {spec.id!r}: start time must be finite and non-negative, got {spec.start_time}")
        if spec.planner not in PLANNERS:
            raise ConfigError(f"agent {spec.id!r}: unknown planner {spec.planner!r}")
    return specs


# The last synthesized trace and its key: (graph, rates, overrides, horizon_s, seed). The graph is
# compared by identity, and the trace depends on nothing else, so a run with an equal key reuses it.
_last_synthesized: tuple[tuple, OccupationTrace] | None = None


def run_simulation(
    graph: RoadGraph,
    agents: Iterable[AgentSpec],
    occupation: OccupationTrace | CtmcParams,
    *,
    params: CtmcParams | None = None,
    params_by_resource: dict[str, CtmcParams] | None = None,
    settings: PlannerSettings | None = None,
    horizon_s: float = DEFAULT_HORIZON_S,
    seed: int = 0,
    measure_computation: bool = True,
    collect_events: bool = False,
    ctx: PlannerContext | None = None,
):
    """Run one scenario to completion and return per-agent metrics.

    ``occupation`` is either a prepared trace or availability-process
    parameters, in which case a synthetic trace is sampled from the run seed
    (honoring ``params_by_resource`` overrides). Planners predict with the
    same rates. Identical inputs produce identical outputs; planner
    wall-clock is the one measured quantity and can be disabled with
    ``measure_computation=False``.

    Runs that share a graph object, rates, overrides, horizon and seed reuse
    one synthesized trace: the engine keeps the last one it drew (read-only).
    A study that compares planner kinds should therefore run every kind on a
    seed before moving to the next seed.
    """
    global _last_synthesized
    horizon_s = check_number(horizon_s, "horizon_s")
    settings = settings or PlannerSettings()
    specs = _validate_agents(graph, agents)
    overrides = params_by_resource or {}
    unknown = sorted(set(overrides) - graph.resources.keys())
    if unknown:
        raise ConfigError(f"params_by_resource: unknown resource {unknown[0]!r}")
    # the trace draws from child 0, whose spawn key (0,) does not depend on the number of agents
    children = np.random.SeedSequence(seed).spawn(len(specs) + 1)

    if isinstance(occupation, CtmcParams):
        key = (graph, occupation, frozenset(overrides.items()), horizon_s, seed)
        last = _last_synthesized
        if last is not None and last[0] == key:
            trace = last[1]
        else:
            trace = synthesize_occupations(graph, occupation, horizon_s, np.random.default_rng(children[0]), overrides)
            for column in (trace.resources, trace.start_up, trace.time, trace.spot, trace.up):
                column.flags.writeable = False  # shared by later runs with the same key
            _last_synthesized = (key, trace)
        params = params or occupation
    else:
        trace = occupation
        params = params or DEFAULT_CTMC
    trace = replay_trace(trace)

    if ctx is None:
        ctx = PlannerContext(graph, all_pairs_travel_times(graph))

    lam_vec = np.full(ctx.n_resources, params.lam)
    mu_vec = np.full(ctx.n_resources, params.mu)
    for rid, p in overrides.items():
        lam_vec[ctx.res_index[rid]] = p.lam
        mu_vec[ctx.res_index[rid]] = p.mu
    rates = AvailabilityRates(lam_vec, mu_vec)
    t_claim = expected_wait_times_rates(rates, ctx.res_t_tr)

    try:
        trace_idx = np.array([ctx.res_index[rid] for rid in trace.resources.tolist()], dtype=np.intp)
    except KeyError as exc:
        raise TraceError(f"trace references unknown resource {exc.args[0]!r}") from None
    # one availability array: a spot a fleet car parked on is occupied, and trace flips skip it
    avail = np.ones(ctx.n_resources, dtype=bool)
    avail[trace_idx] = trace.start_up
    fleet_parked: set[int] = set()

    fleet = Fleet(settings)
    runtimes = {spec.id: AgentRuntime(spec, np.random.default_rng(children[i + 1])) for i, spec in enumerate(specs)}
    # Each agent's policy, its one view for the whole run (sharing the run's arrays) and whether it
    # shares fleet data; a parked agent never decides again, so its entry is dropped when it parks.
    planning: dict[str, tuple[object, PlanningView, bool]] = {}
    for spec in specs:
        shares = PLANNERS[spec.planner].shares
        view = PlanningView(
            ctx, spec.start_time, avail, params,
            reservations=fleet.reservations if shares == "reservations" else None,
            overlay=fleet.overlay if shares == "overlay" else None,
            agent_id=spec.id, rates=rates, t_claim=t_claim,
        )
        planning[spec.id] = (make_policy(spec.planner, ctx, spec.destination, settings), view, shares is not None)

    heap: list[tuple] = []
    seq = 0

    def push(time_s: float, rank: int, key: str, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time_s, rank, key, seq, kind, payload))
        seq += 1

    due = int(np.searchsorted(trace.time, horizon_s, side="right"))
    flip_time = trace.time[:due].tolist()
    flip_res = trace_idx[trace.spot[:due]].tolist()
    flip_up = trace.up[:due].tolist()
    next_flip = 0

    for spec in specs:
        push(spec.start_time, _RANK_AGENT, spec.id, "spawn", spec.start_node)

    log: list[SimEvent] = []

    def apply_flips(until: float) -> None:
        """Replay the trace up to and including ``until``; flips rank first at equal times."""
        nonlocal next_flip
        while next_flip < due and flip_time[next_flip] <= until:
            if flip_res[next_flip] not in fleet_parked:
                avail[flip_res[next_flip]] = flip_up[next_flip]
            if collect_events:
                log.append(SimEvent(flip_time[next_flip], "resource_flip", resource=ctx.res_ids[flip_res[next_flip]],
                                    detail="available" if flip_up[next_flip] else "occupied"))
            next_flip += 1

    def decide(rt: AgentRuntime, now: float) -> None:
        policy, view, shares = planning[rt.spec.id]
        view.now = now
        if measure_computation:
            t0 = _time.perf_counter()
        decision = policy.decide(view, rt.node, rt.rng)
        if shares:
            fleet.publish(view, decision, rt.rng, rt.spec.destination)
        if measure_computation:  # publishing what the fleet shares is planner work too
            rt.computation_s += _time.perf_counter() - t0

        action = decision.action
        if isinstance(action, TakeRoad):
            edge = graph.edges[action.edge]
            if edge.from_node != rt.node:
                raise ParkSearchError(f"policy chose non-adjacent edge {edge.id!r} at {rt.node!r}")
            push(now + edge.drive_time_s, _RANK_AGENT, rt.spec.id, "at_node", edge.to_node)
        else:
            resource = graph.resources[action.resource]
            edge = graph.edges[resource.edge_id]
            if edge.from_node != rt.node:
                raise ParkSearchError(f"policy chose non-adjacent resource {resource.id!r} at {rt.node!r}")
            push(now + resource.offset_s, _RANK_CLAIM, rt.spec.id, "claim", (resource.id, now))

    while heap:
        apply_flips(heap[0][0])
        now, rank, key, _, kind, payload = heapq.heappop(heap)
        if now > horizon_s:
            break
        if kind == "spawn":
            rt = runtimes[key]
            rt.node = payload
            if collect_events:
                log.append(SimEvent(now, "agent_spawn", agent=key, node=payload))
            decide(rt, now)
        elif kind == "at_node":
            rt = runtimes[key]
            if rt.status != "driving":
                continue
            rt.node = payload
            if collect_events:
                log.append(SimEvent(now, "agent_at_node", agent=key, node=payload))
            decide(rt, now)
        elif kind == "claim":
            rt = runtimes[key]
            if rt.status != "driving":
                continue
            rid, decision_time = payload
            ridx = ctx.res_index[rid]
            if avail[ridx]:
                avail[ridx] = False  # taking the spot occupies it for the rest of the run
                fleet_parked.add(ridx)
                rt.status = "parked"
                rt.park_time = now
                rt.parked_resource = rid
                rt.walk_s = walking_time(graph.resources[rid].position, rt.spec.destination)
                fleet.withdraw(key)
                del planning[key]
                if collect_events:
                    log.append(SimEvent(now, "agent_claim", agent=key, resource=rid, detail="success"))
            else:
                rt.unsuccessful_claims += 1
                edge = graph.edges[graph.resources[rid].edge_id]
                push(decision_time + edge.drive_time_s, _RANK_AGENT, key, "at_node", edge.to_node)
                if collect_events:
                    log.append(SimEvent(now, "agent_claim", agent=key, resource=rid, detail="failed"))
    apply_flips(horizon_s)

    records: list[MetricsRecord] = []
    for spec in specs:
        rt = runtimes[spec.id]
        taxi = ctx.taxi_time(spec.start_node, spec.destination)
        if rt.status == "parked":
            total = (rt.park_time - spec.start_time) + rt.walk_s
            status = "parked"
        else:
            rt.status = "timed_out"
            fleet.withdraw(spec.id)
            total = horizon_s
            status = "timed_out"
        records.append(
            MetricsRecord(
                agent_id=spec.id,
                planner=spec.planner,
                total_trip_s=float(total),
                taxi_s=float(taxi),
                parking_s=float(total - taxi),
                unsuccessful_claims=rt.unsuccessful_claims,
                computation_s=rt.computation_s,
                parked_resource=rt.parked_resource,
                status=status,
            )
        )
    if collect_events:
        return records, log
    return records


def compute_metrics(records: Iterable[MetricsRecord]) -> dict:
    """Aggregate per-planner summaries from per-agent records."""
    by_kind: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        by_kind.setdefault(rec.planner, []).append(rec)
    out: dict[str, dict] = {}
    for kind in sorted(by_kind):
        recs = by_kind[kind]
        parking = np.array([r.parking_s for r in recs])
        comp_ms = np.array([r.computation_s * 1000.0 for r in recs])
        out[kind] = {
            "agents": len(recs),
            "mean_parking_s": float(parking.mean()),
            "total_parking_s": float(parking.sum()),
            "total_unsuccessful_claims": int(sum(r.unsuccessful_claims for r in recs)),
            "timed_out": int(sum(1 for r in recs if r.status == "timed_out")),
            "median_computation_ms": float(np.median(comp_ms)),
            "p90_computation_ms": float(np.percentile(comp_ms, 90)),
        }
    return out


def write_results(path: str | Path, records: Iterable[MetricsRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in sorted(records, key=lambda r: r.agent_id):
            writer.writerow([
                r.agent_id,
                r.planner,
                f"{r.total_trip_s:.3f}",
                f"{r.taxi_s:.3f}",
                f"{r.parking_s:.3f}",
                r.unsuccessful_claims,
                f"{r.computation_s * 1000.0:.3f}",
                r.parked_resource or "",
                r.status,
            ])


def read_results(path: str | Path) -> list[MetricsRecord]:
    records: list[MetricsRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ConfigError(f"bad results header in {path}: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise ConfigError(f"{path} line {lineno}: expected {len(RESULTS_HEADER)} columns, got {len(row)}")
            try:
                records.append(
                    MetricsRecord(
                        agent_id=row[0],
                        planner=row[1],
                        total_trip_s=float(row[2]),
                        taxi_s=float(row[3]),
                        parking_s=float(row[4]),
                        unsuccessful_claims=int(row[5]),
                        computation_s=float(row[6]) / 1000.0,
                        parked_resource=row[7] or None,
                        status=row[8],
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from None
    return records
