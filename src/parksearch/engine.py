"""Deterministic discrete-event simulation of agents competing for resources.

Resource states evolve by replaying an occupation trace (recorded or
synthesized from the availability process); agents decide at intersections,
claim resources at their exact arrival position on the edge, and the engine
merges both occupancy sources: a spot a fleet agent parked on stays occupied
for the rest of the run regardless of later trace flips.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .availability import (
    AdaptionOverlay,
    CtmcParams,
    ResourceState,
    expected_wait_times_rates,
    stationary_availability,
)
from .errors import ConfigError, ParkSearchError, TraceError
from .fleet import ReservationTable, adapt_probabilities, reverse_adaptions
from .geo import GeoPoint, walking_time
from .graph import RoadGraph, all_pairs_travel_times
from .planners import (
    PlannerContext,
    PlannerSettings,
    PlanningView,
    TakeRoad,
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


@dataclass(frozen=True)
class TraceEvent:
    resource: str
    time: float
    state: ResourceState


@dataclass
class OccupationTrace:
    """Ordered state flips per resource; resources without an entry start available."""

    events: list[TraceEvent]
    initial_states: dict[str, ResourceState] = field(default_factory=dict)


def replay_trace(trace: OccupationTrace) -> list[TraceEvent]:
    """Validate and return the trace events in deterministic replay order."""
    last_time: dict[str, float] = {}
    last_state: dict[str, ResourceState] = dict(trace.initial_states)
    events = sorted(trace.events, key=lambda e: (e.time, e.resource))
    for ev in events:
        if not 0.0 <= ev.time < math.inf:
            raise TraceError(f"resource {ev.resource!r}: event time must be finite and non-negative, got {ev.time}")
        prev_t = last_time.get(ev.resource)
        if prev_t is not None and ev.time <= prev_t:
            raise TraceError(f"non-increasing event times for resource {ev.resource!r} at {ev.time}")
        prev_s = last_state.get(ev.resource, ResourceState.AVAILABLE)
        if ev.state == prev_s:
            raise TraceError(f"non-alternating states for resource {ev.resource!r} at {ev.time}")
        last_time[ev.resource] = ev.time
        last_state[ev.resource] = ev.state
    return events


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
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    overrides = params_by_resource or {}
    events: list[TraceEvent] = []
    initial: dict[str, ResourceState] = {}
    for rid in graph.resources:
        p = overrides.get(rid, params)
        available = bool(rng.random() < stationary_availability(p))
        initial[rid] = ResourceState.AVAILABLE if available else ResourceState.OCCUPIED
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / (p.lam if available else p.mu)))
            if t >= horizon_s:
                break
            available = not available
            events.append(
                TraceEvent(rid, t, ResourceState.AVAILABLE if available else ResourceState.OCCUPIED)
            )
    events.sort(key=lambda e: (e.time, e.resource))
    return OccupationTrace(events, initial)


def load_trace(path: str | Path) -> OccupationTrace:
    """Read a ``resource_id,time_s,state`` table; resources start available."""
    events: list[TraceEvent] = []
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
            events.append(TraceEvent(rid, t, ResourceState(state)))
    trace = OccupationTrace(events)
    replay_trace(trace)
    return trace


def save_trace(path: str | Path, trace: OccupationTrace) -> None:
    """Write a trace at 1-second resolution.

    Event times are floored to whole seconds (bumped forward where flooring
    would collide) and initially occupied resources are encoded as flips at
    time 0, so a reloaded trace replays the same state sequence.
    """
    per_resource: dict[str, list[TraceEvent]] = {}
    for rid, state in sorted(trace.initial_states.items()):
        if state is ResourceState.OCCUPIED:
            per_resource.setdefault(rid, []).append(TraceEvent(rid, 0.0, state))
    for ev in sorted(trace.events, key=lambda e: (e.time, e.resource)):
        per_resource.setdefault(ev.resource, []).append(ev)
    rows: list[tuple[str, int, str]] = []
    for rid, evs in per_resource.items():
        prev = -1
        for ev in evs:
            t = max(prev + 1, int(ev.time))
            prev = t
            rows.append((rid, t, ev.state.value))
    rows.sort(key=lambda r: (r[1], r[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resource_id", "time_s", "state"])
        writer.writerows(rows)


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
    policy: object
    rng: np.random.Generator
    status: str = "driving"
    node: str | None = None
    unsuccessful_claims: int = 0
    computation_s: float = 0.0
    parked_resource: str | None = None
    park_time: float | None = None
    walk_s: float = 0.0
    adaption_record: object | None = None
    adaption_target: str | None = None


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


_RESERVATION_KINDS = {kind for kind, spec in PLANNERS.items() if spec.shares == "reservations"}
_OVERLAY_KINDS = {kind for kind, spec in PLANNERS.items() if spec.shares == "overlay"}


def taxi_time(ctx: PlannerContext, start_node: str, destination: GeoPoint) -> float:
    """Trip time with a drop-off as close to the destination as any node allows."""
    return float(np.min(ctx.M[ctx.node_index[start_node]] + ctx.node_walk_vector(destination)))


def _validate_agents(graph: RoadGraph, agents: Iterable[AgentSpec]) -> list[AgentSpec]:
    specs = sorted(agents, key=lambda a: a.id)
    seen: set[str] = set()
    for spec in specs:
        if spec.id in seen:
            raise ConfigError(f"duplicate agent id {spec.id!r}")
        seen.add(spec.id)
        if spec.start_node not in graph.nodes:
            raise ConfigError(f"agent {spec.id!r}: unknown start node {spec.start_node!r}")
        if spec.start_time < 0:
            raise ConfigError(f"agent {spec.id!r}: negative start time")
        if spec.planner not in PLANNERS:
            raise ConfigError(f"agent {spec.id!r}: unknown planner {spec.planner!r}")
    return specs


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
    """
    settings = settings or PlannerSettings()
    specs = _validate_agents(graph, agents)
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(specs) + 1)
    trace_rng = np.random.default_rng(children[0])

    if isinstance(occupation, CtmcParams):
        trace = synthesize_occupations(graph, occupation, horizon_s, trace_rng, params_by_resource)
        params = params or occupation
    else:
        trace = occupation
        params = params or DEFAULT_CTMC
    flips = replay_trace(trace)

    if ctx is None:
        ctx = PlannerContext(graph, all_pairs_travel_times(graph))

    lam_vec = np.full(ctx.n_resources, params.lam)
    mu_vec = np.full(ctx.n_resources, params.mu)
    if params_by_resource:
        for rid, p in params_by_resource.items():
            if rid in ctx.res_index:
                lam_vec[ctx.res_index[rid]] = p.lam
                mu_vec[ctx.res_index[rid]] = p.mu
    t_claim = expected_wait_times_rates(lam_vec, mu_vec, ctx.res_t_tr)

    trace_avail = np.ones(ctx.n_resources, dtype=bool)
    for rid, state in trace.initial_states.items():
        if rid not in ctx.res_index:
            raise TraceError(f"trace references unknown resource {rid!r}")
        trace_avail[ctx.res_index[rid]] = state is ResourceState.AVAILABLE
    fleet_parked = np.zeros(ctx.n_resources, dtype=bool)

    table = ReservationTable() if any(s.planner in _RESERVATION_KINDS for s in specs) else None
    overlay = AdaptionOverlay() if any(s.planner in _OVERLAY_KINDS for s in specs) else None

    runtimes: dict[str, AgentRuntime] = {}
    for i, spec in enumerate(specs):
        runtimes[spec.id] = AgentRuntime(
            spec=spec,
            policy=make_policy(spec.planner, ctx, spec.destination, settings),
            rng=np.random.default_rng(children[i + 1]),
        )

    heap: list[tuple] = []
    seq = 0

    def push(time_s: float, rank: int, key: str, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time_s, rank, key, seq, kind, payload))
        seq += 1

    for ev in flips:
        if ev.resource not in ctx.res_index:
            raise TraceError(f"trace references unknown resource {ev.resource!r}")
    flips = [ev for ev in flips if ev.time <= horizon_s]
    flip_time = [ev.time for ev in flips]
    flip_res = [ctx.res_index[ev.resource] for ev in flips]
    flip_up = [ev.state is ResourceState.AVAILABLE for ev in flips]
    next_flip = 0

    for spec in specs:
        push(spec.start_time, _RANK_AGENT, spec.id, "spawn", spec.start_node)

    log: list[SimEvent] = []

    def apply_flips(until: float) -> None:
        """Replay the trace up to and including ``until``; flips rank first at equal times."""
        nonlocal next_flip
        while next_flip < len(flip_time) and flip_time[next_flip] <= until:
            trace_avail[flip_res[next_flip]] = flip_up[next_flip]
            if collect_events:
                ev = flips[next_flip]
                log.append(SimEvent(ev.time, "resource_flip", resource=ev.resource, detail=ev.state.value))
            next_flip += 1

    def decide(rt: AgentRuntime, now: float) -> None:
        kind = rt.spec.planner
        avail = trace_avail & ~fleet_parked
        view = PlanningView(
            ctx, now, avail, params,
            reservations=table if kind in _RESERVATION_KINDS else None,
            overlay=overlay if kind in _OVERLAY_KINDS else None,
            agent_id=rt.spec.id,
            lam_vec=lam_vec, mu_vec=mu_vec, t_claim=t_claim,
        )
        t0 = _time.perf_counter()
        decision = rt.policy.decide(view, rt.node, rt.rng)
        if overlay is not None and kind in _OVERLAY_KINDS:
            if decision.target_resource != rt.adaption_target:
                if rt.adaption_record is not None:
                    reverse_adaptions(rt.adaption_record, overlay)
                    rt.adaption_record = None
                rt.adaption_target = decision.target_resource
                if decision.target_resource is not None:
                    rt.adaption_record = adapt_probabilities(
                        view,  # hs_a agents never see reservations
                        decision.target_resource,
                        decision.expected_arrival,
                        rt.spec.id,
                        samples=settings.adaption_samples,
                        isochrone_s=settings.adaption_isochrone_s,
                        visit_decay=settings.adaption_visit_decay,
                        rng=rt.rng,
                        dest_node=ctx.dest_node(rt.spec.destination),
                        max_steps=settings.adaption_max_steps,
                    )
        if measure_computation:  # adaption is planner work too
            rt.computation_s += _time.perf_counter() - t0
        if table is not None and kind in _RESERVATION_KINDS and decision.target_resource is not None:
            table.place(rt.spec.id, decision.target_resource, decision.expected_arrival)

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

    def release_fleet_state(rt: AgentRuntime) -> None:
        if table is not None:
            table.cancel(rt.spec.id)
        if overlay is not None and rt.adaption_record is not None:
            reverse_adaptions(rt.adaption_record, overlay)
            rt.adaption_record = None
            rt.adaption_target = None

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
            if trace_avail[ridx] and not fleet_parked[ridx]:
                fleet_parked[ridx] = True  # taking the spot occupies it for the rest of the run
                rt.status = "parked"
                rt.park_time = now
                rt.parked_resource = rid
                rt.walk_s = walking_time(graph.resources[rid].position, rt.spec.destination)
                release_fleet_state(rt)
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
        taxi = taxi_time(ctx, spec.start_node, spec.destination)
        if rt.status == "parked":
            total = (rt.park_time - spec.start_time) + rt.walk_s
            status = "parked"
        else:
            rt.status = "timed_out"
            release_fleet_state(rt)
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
        for row in reader:
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
    return records
