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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .availability import AvailabilityRates, CtmcParams, expected_wait_times_rates, stationary_availability
from .errors import ConfigError, NoPathError, ParkSearchError, TraceError, check_number
from .fleet import Fleet
from .geo import GeoPoint
from .graph import RoadGraph, all_pairs_travel_times
from .planners import (
    HindsightPolicy,
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
    node: int | None = None  # node index
    unsuccessful_claims: int = 0
    computation_s: float = 0.0
    parked_resource: int | None = None  # spot index
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
        check_number(spec.start_time, f"agent {spec.id!r}: start time", positive=False)
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

    Runs that share a ``ctx``, rates, overrides, horizon and seed reuse one
    synthesized trace: the context keeps the last one drawn on its graph
    (read-only). A study that compares planner kinds should therefore pass one
    context and run every kind on a seed before moving to the next seed.

    Inside the run, nodes, streets and spots are ``ctx`` indices and agents their
    positions in id order; ids appear only in inputs, records, events and errors.
    An agent whose policy finds no way on (``NoPathError``) is ``stranded``: it
    leaves the run and its record reads like a timed-out one.
    """
    horizon_s = check_number(horizon_s, "horizon_s")
    settings = settings or PlannerSettings()
    specs = _validate_agents(graph, agents)
    overrides = params_by_resource or {}
    unknown = sorted(set(overrides) - graph.resources.keys())
    if unknown:
        raise ConfigError(f"params_by_resource: unknown resource {unknown[0]!r}")
    # the trace draws from child 0, whose spawn key (0,) does not depend on the number of agents
    children = np.random.SeedSequence(seed).spawn(len(specs) + 1)
    if ctx is None:
        ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    elif ctx.graph is not graph:
        raise ValueError("ctx was built for another graph")

    if isinstance(occupation, CtmcParams):
        # the trace depends on nothing else, so a run with an equal key reuses it
        key = (occupation, frozenset(overrides.items()), horizon_s, seed)
        if ctx.synthesized is not None and ctx.synthesized[0] == key:
            trace = ctx.synthesized[1]
        else:
            trace = synthesize_occupations(graph, occupation, horizon_s, np.random.default_rng(children[0]), overrides)
            for column in (trace.resources, trace.start_up, trace.time, trace.spot, trace.up):
                column.flags.writeable = False  # shared by later runs with the same key
            ctx.synthesized = (key, trace)
        params = params or occupation
    else:
        trace = occupation
        params = params or DEFAULT_CTMC
    trace = replay_trace(trace)

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

    fleet = Fleet(settings, len(specs))
    runtimes = [AgentRuntime(spec, np.random.default_rng(children[i + 1])) for i, spec in enumerate(specs)]
    # Each agent's policy, its one view for the whole run (sharing the run's arrays) and whether it
    # shares fleet data; a parked agent never decides again, so its entry is dropped when it parks.
    planning: dict[int, tuple[object, PlanningView, bool]] = {}
    # Hindsight agents bound for one destination share its plans (HindsightPolicy.plans), which read this
    # run's t_claim and scope; a lone agent's would seldom be reused and would only hold memory.
    heading = Counter(spec.destination for spec in specs if PLANNERS[spec.planner].policy is HindsightPolicy)
    plans = {destination: {} for destination, count in heading.items() if count > 1}
    for i, spec in enumerate(specs):
        shares = PLANNERS[spec.planner].shares
        view = PlanningView(
            ctx, spec.start_time, avail, rates, t_claim,
            reservations=fleet.reservations if shares == "reservations" else None,
            overlay=fleet.overlay if shares == "overlay" else None,
            agent_id=i,
        )
        policy = make_policy(spec.planner, ctx, spec.destination, settings)
        if isinstance(policy, HindsightPolicy):
            policy.plans = plans.get(spec.destination)
        planning[i] = (policy, view, shares is not None)

    # An agent has at most one queued event, and only while driving, so (time, rank, agent) orders the
    # queue on its own: an agent event's payload is the node reached, a claim's the spot and decision time.
    starts = [ctx.node_index[spec.start_node] for spec in specs]
    heap = [(spec.start_time, _RANK_AGENT, i, starts[i]) for i, spec in enumerate(specs)]
    heapq.heapify(heap)
    due = int(np.searchsorted(trace.time, horizon_s, side="right"))
    flip_time = trace.time[:due].tolist()
    flip_res = trace_idx[trace.spot[:due]].tolist()
    flip_up = trace.up[:due].tolist()
    next_flip = 0

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

    def decide(key: int, now: float) -> None:
        rt = runtimes[key]
        policy, view, shares = planning[key]
        view.now = now
        if measure_computation:
            t0 = _time.perf_counter()
        try:
            decision = policy.decide(view, rt.node, rt.rng)
        except NoPathError:
            decision = None
        if shares and decision is not None:
            fleet.publish(view, decision, rt.rng, rt.spec.destination)
        if measure_computation:  # publishing what the fleet shares is planner work too
            rt.computation_s += _time.perf_counter() - t0

        if decision is None:  # no way on from here: the agent leaves the run
            rt.status = "stranded"
            fleet.withdraw(key)
            del planning[key]
            return
        action = decision.action
        if isinstance(action, TakeRoad):
            street = action.edge
            if ctx.edge_from[street] != rt.node:
                raise ParkSearchError(f"policy chose non-adjacent edge {ctx.edge_ids[street]!r} "
                                      f"at {ctx.node_ids[rt.node]!r}")
            heapq.heappush(heap, (now + ctx.edge_time[street], _RANK_AGENT, key, ctx.edge_to[street]))
        else:
            resource = ctx.resources[action.resource]
            if ctx.res_from_idx[action.resource] != rt.node:
                raise ParkSearchError(f"policy chose non-adjacent resource {resource.id!r} "
                                      f"at {ctx.node_ids[rt.node]!r}")
            heapq.heappush(heap, (now + resource.offset_s, _RANK_CLAIM, key, (action.resource, now)))

    while heap:
        if next_flip < due and flip_time[next_flip] <= heap[0][0]:  # apply_flips' own loop condition
            apply_flips(heap[0][0])
        now, rank, key, payload = heapq.heappop(heap)
        if now > horizon_s:
            break
        rt = runtimes[key]
        if rank == _RANK_AGENT:
            if collect_events:
                kind = "agent_spawn" if rt.node is None else "agent_at_node"
                log.append(SimEvent(now, kind, agent=rt.spec.id, node=ctx.node_ids[payload]))
            rt.node = payload
            decide(key, now)
        else:
            ridx, decision_time = payload
            resource = ctx.resources[ridx]
            if avail[ridx]:
                avail[ridx] = False  # taking the spot occupies it for the rest of the run
                fleet_parked.add(ridx)
                rt.status = "parked"
                rt.park_time = now
                rt.parked_resource = ridx
                rt.walk_s = float(ctx.walk_vector(rt.spec.destination)[ridx])  # the walk the planners priced
                fleet.withdraw(key)
                del planning[key]
                if collect_events:
                    log.append(SimEvent(now, "agent_claim", agent=rt.spec.id, resource=resource.id, detail="success"))
            else:
                rt.unsuccessful_claims += 1
                street = ctx.res_edge[ridx]
                heapq.heappush(heap, (decision_time + ctx.edge_time[street], _RANK_AGENT, key, ctx.edge_to[street]))
                if collect_events:
                    log.append(SimEvent(now, "agent_claim", agent=rt.spec.id, resource=resource.id, detail="failed"))
    apply_flips(horizon_s)

    records: list[MetricsRecord] = []
    for i, (spec, rt) in enumerate(zip(specs, runtimes)):
        taxi = ctx.taxi_time(starts[i], spec.destination)
        if rt.status == "parked":
            total = (rt.park_time - spec.start_time) + rt.walk_s
        else:
            if rt.status == "driving":
                rt.status = "timed_out"
            fleet.withdraw(i)
            total = horizon_s
        records.append(
            MetricsRecord(
                agent_id=spec.id,
                planner=spec.planner,
                total_trip_s=float(total),
                taxi_s=float(taxi),
                parking_s=float(total - taxi),
                unsuccessful_claims=rt.unsuccessful_claims,
                computation_s=rt.computation_s,
                parked_resource=None if rt.parked_resource is None else ctx.res_ids[rt.parked_resource],
                status=rt.status,
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
            "mean_parking_s_clamped": float(np.maximum(parking, 0.0).mean()),
            "total_parking_s": float(parking.sum()),
            "total_unsuccessful_claims": int(sum(r.unsuccessful_claims for r in recs)),
            "timed_out": int(sum(1 for r in recs if r.status == "timed_out")),
            "stranded": int(sum(1 for r in recs if r.status == "stranded")),
            "negative_parking": int(np.count_nonzero(parking < 0.0)),
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
