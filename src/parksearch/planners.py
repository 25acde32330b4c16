"""Policies mapping an agent's observed state to a drive or park action.

Four families are implemented:

* ``ReplanningPolicy`` plans in the state-frozen most likely future on an
  extended graph where each resource contributes a terminal edge, and plans
  again whenever the target's treated availability changes.
* ``HindsightPolicy`` samples deterministic futures of all resource states,
  solves each optimally, and picks the action with the best one-step
  look-ahead mean cost.
* ``RandomPolicy`` and ``HeuristicPolicy`` are no-information baselines.

All policies are deterministic functions of (view, agent state, rng stream).
Cost bookkeeping is vectorized over resources sorted by id, so ``argmin``
tie-breaks resolve to the smallest id everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .availability import AdaptionOverlay, AvailabilityRates, CtmcParams, expected_wait_times_rates
from .errors import ConfigError, NoPathError
from .fleet import ReservationTable
from .geo import GeoPoint, great_circle_m, great_circle_m_many, walking_time_many
from .graph import Edge, RoadGraph


@dataclass(frozen=True)
class TakeRoad:
    edge: str


@dataclass(frozen=True)
class TakeResource:
    resource: str


Action = TakeRoad | TakeResource


@dataclass(frozen=True)
class RouteDecision:
    action: Action
    target_resource: str | None = None
    expected_arrival: float | None = None
    recomputed: bool = True


@dataclass(frozen=True)
class Determinization:
    """One sampled future: availability of every in-scope resource at the agent's arrival time."""

    available: np.ndarray  # bool, aligned with PlannerContext.res_ids


def check_number(value, name: str, *, integer: bool = False, positive: bool = True) -> float | int:
    """``value`` as a finite number within its bounds; a ConfigError naming ``name`` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        need = ("a positive " if positive else "a non-negative ") + ("integer" if integer else "number")
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class PlannerSettings:
    determinizations: int = 100
    scope_horizon_s: float | None = None
    heuristic_far_radius_m: float = 500.0
    heuristic_accept_walk_s: float = 120.0
    heuristic_relax_s_per_min: float = 10.0
    adaption_samples: int = 30
    adaption_isochrone_s: float = 300.0
    adaption_visit_decay: float = 0.95
    adaption_max_steps: int = 1000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                check_number(value, f.name, **SETTING_BOUNDS[f.name])


# check_number bounds of each PlannerSettings field (default: a positive number); a None default allows None.
SETTING_BOUNDS = {
    "determinizations": {"integer": True},
    "scope_horizon_s": {},
    "heuristic_far_radius_m": {"positive": False},
    "heuristic_accept_walk_s": {"positive": False},
    "heuristic_relax_s_per_min": {"positive": False},
    "adaption_samples": {"integer": True},
    "adaption_isochrone_s": {},
    "adaption_visit_decay": {"positive": False},
    "adaption_max_steps": {"integer": True, "positive": False},
}


class PlannerContext:
    """Precomputed arrays shared by every policy evaluation on one graph; ``times`` are the least
    drive seconds between node pairs in ``graph.nodes`` order, read only by the context's methods."""

    def __init__(self, graph: RoadGraph, times: np.ndarray):
        n = len(graph.nodes)
        if np.shape(times) != (n, n):
            raise ValueError(f"drive times must be {n}x{n} for the graph's nodes, got shape {np.shape(times)}")
        self.graph = graph
        self.M = times
        self.node_ids: tuple[str, ...] = tuple(graph.nodes)
        self.node_index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.node_lat = np.array([graph.nodes[n].position.lat for n in self.node_ids])
        self.node_lon = np.array([graph.nodes[n].position.lon for n in self.node_ids])

        self.res_ids: tuple[str, ...] = tuple(graph.resources)
        self.res_index = {rid: i for i, rid in enumerate(self.res_ids)}
        res = [graph.resources[rid] for rid in self.res_ids]
        self.res_from_idx = np.array(
            [self.node_index[graph.edges[r.edge_id].from_node] for r in res], dtype=int
        )
        self.res_offset = np.array([r.offset_s for r in res])
        self.res_t_tr = np.array([r.round_trip_s for r in res])
        self.res_lat = np.array([r.position.lat for r in res])
        self.res_lon = np.array([r.position.lon for r in res])

        self.out_edges = graph.out_edges
        # the spots of each out-street in turn, each street's in resources_by_edge order
        self.adjacent_res: dict[str, tuple[int, ...]] = {
            nid: tuple(self.res_index[rid] for e in edges for rid in graph.resources_by_edge[e.id])
            for nid, edges in graph.out_edges.items()
        }
        self._street_spots: dict[str, np.ndarray] = {}
        self._walk_cache: dict[tuple[float, float], np.ndarray] = {}
        self._node_walk_cache: dict[tuple[float, float], np.ndarray] = {}
        self._street_mid: tuple[tuple[str, ...], np.ndarray, np.ndarray] | None = None

    @property
    def n_resources(self) -> int:
        return len(self.res_ids)

    def walk_vector(self, destination: GeoPoint) -> np.ndarray:
        key = (destination.lat, destination.lon)
        if key not in self._walk_cache:
            self._walk_cache[key] = walking_time_many(self.res_lat, self.res_lon, destination)
        return self._walk_cache[key]

    def node_walk_vector(self, destination: GeoPoint) -> np.ndarray:
        key = (destination.lat, destination.lon)
        if key not in self._node_walk_cache:
            self._node_walk_cache[key] = walking_time_many(self.node_lat, self.node_lon, destination)
        return self._node_walk_cache[key]

    def street_midpoints(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Edge ids in graph order with the latitude and longitude of each street's midpoint.

        Built on first use, so contexts whose agents never need them pay nothing.
        """
        if self._street_mid is None:
            nodes = self.graph.nodes
            ends = [(nodes[e.from_node].position, nodes[e.to_node].position) for e in self.graph.edges.values()]
            self._street_mid = (
                tuple(self.graph.edges),
                np.array([(a.lat + b.lat) / 2.0 for a, b in ends]),
                np.array([(a.lon + b.lon) / 2.0 for a, b in ends]),
            )
        return self._street_mid

    def street_spots(self, edge_id: str) -> np.ndarray:
        """Resource indices on a street in ``resources_by_edge`` order, built on first use."""
        spots = self._street_spots.get(edge_id)
        if spots is None:
            rids = self.graph.resources_by_edge[edge_id]
            spots = self._street_spots[edge_id] = np.array([self.res_index[r] for r in rids], dtype=int)
        return spots

    def dest_node(self, destination: GeoPoint) -> str:
        """Node whose position is walk-closest to the destination."""
        return self.node_ids[int(np.argmin(self.node_walk_vector(destination)))]

    def drive_time(self, from_node: str, to_node: str) -> float:
        """Least drive seconds between two nodes; ``inf`` when unreachable."""
        return float(self.M[self.node_index[from_node], self.node_index[to_node]])

    def isochrone(self, around: str, limit_s: float) -> set[str]:
        """Nodes from which ``around`` can be reached within ``limit_s`` of driving."""
        return {self.node_ids[i] for i in np.flatnonzero(self.M[:, self.node_index[around]] <= limit_s)}

    def taxi_time(self, start: str, destination: GeoPoint) -> float:
        """Trip time with a drop-off as close to the destination as any node allows."""
        return float(np.min(self.M[self.node_index[start]] + self.node_walk_vector(destination)))

    def drive_to_resources(self, nodes: str | list[str]) -> np.ndarray:
        """Drive seconds to every resource (via its edge start, then the offset) from a node,
        or one row per node of a list."""
        if isinstance(nodes, str):
            return self.M[self.node_index[nodes], self.res_from_idx] + self.res_offset
        # take keeps the gathered rows C-ordered; M[rows][:, cols] would lay them out column-major,
        # and every reduction along resources would then stride across memory.
        rows = self.M.take([self.node_index[n] for n in nodes], axis=0).take(self.res_from_idx, axis=1)
        rows += self.res_offset
        return rows

    def first_hop(self, from_node: str, to_node: str) -> Edge:
        """Edge starting a least-time path; ties resolve to the smallest edge id."""
        if from_node == to_node:
            raise ValueError("already at the target node")
        best: Edge | None = None
        best_cost = np.inf
        for e in self.out_edges[from_node]:
            c = e.drive_time_s + self.drive_time(e.to_node, to_node)
            if c < best_cost:
                best, best_cost = e, c
        if best is None or not np.isfinite(best_cost):
            raise NoPathError(f"no path from {from_node!r} to {to_node!r}")
        return best

    def arrival(self, now: float, node: str, ridx: int) -> float:
        """Arrival at resource ``ridx`` leaving ``node`` at ``now``: ``now + drive_to_resources(node)[ridx]``
        bit for bit. Every planner's arrival at a spot is this one sum, so reservations compare
        predictions made alike."""
        return float(now + (self.M[self.node_index[node], self.res_from_idx[ridx]] + self.res_offset[ridx]))

    def toward(self, now: float, node: str, ridx: int, recomputed: bool = True) -> RouteDecision:
        """Claim resource ``ridx`` if its street starts at ``node``, else take the first hop toward it."""
        rid, start = self.res_ids[ridx], self.node_ids[self.res_from_idx[ridx]]
        action = TakeResource(rid) if start == node else TakeRoad(self.first_hop(node, start).id)
        return RouteDecision(action, rid, self.arrival(now, node, ridx), recomputed)


@dataclass
class PlanningView:
    """What a policy sees at one decision.

    The engine keeps one view per agent for the whole run and sets ``now`` before each of
    that agent's decisions. ``avail`` is the engine's live availability array, not a copy:
    later trace flips and claims overwrite it, so a view describes the world only at ``now``.
    ``rates`` is the availability rule for per-resource flip rates; it defaults to the global
    pair in ``params`` when the scenario does not override them. ``t_claim`` is the expected
    circling wait at each resource. Every view of a run shares that run's arrays.
    """

    ctx: PlannerContext
    now: float
    avail: np.ndarray  # current availability per resource, aligned with ctx.res_ids
    params: CtmcParams
    reservations: ReservationTable | None = None
    overlay: AdaptionOverlay | None = None
    agent_id: str | None = None
    rates: AvailabilityRates | None = None
    t_claim: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.ctx.n_resources
        if self.rates is None:
            self.rates = AvailabilityRates(np.full(n, self.params.lam), np.full(n, self.params.mu))
        if self.t_claim is None:
            self.t_claim = expected_wait_times_rates(self.rates, self.ctx.res_t_tr)

    def availability(self, at: np.ndarray | float, idx=None) -> np.ndarray:
        """Predicted availability at ``at`` of every resource, or of the resource indices ``idx``.

        ``at`` is one time or one time per resource. Overlay deltas active by
        then are subtracted and the result clamped to [0, 1]. The viewing
        agent's own deltas are not subtracted, mirroring how reservations never
        block their holder.
        """
        p = self.rates.after(at - self.now, self.avail if idx is None else self.avail[idx], idx)
        if self.overlay:
            at = np.broadcast_to(at, p.shape)
            index, ids = self.ctx.res_index, self.ctx.res_ids
            slots = ([(index[rid], rid) for rid in self.overlay.resources() if rid in index] if idx is None
                     else [(k, ids[i]) for k, i in enumerate(idx)])
            for k, rid in slots:
                p[k] -= self.overlay.pending_subtraction(rid, float(at[k]), self.agent_id)
            np.clip(p, 0.0, 1.0, out=p)
        return p

    def claim_wait(self, available: np.ndarray) -> np.ndarray:
        """Extra cost per resource: nothing where available, the expected circling wait where occupied."""
        return np.where(available, 0.0, self.t_claim)

    def reserved(self, arrivals: np.ndarray, idx=None) -> np.ndarray:
        """Mask over ``arrivals``, one per resource or per resource index in ``idx``, of the spots
        another fleet agent reaches first (``ReservationTable.blocked``)."""
        if self.reservations is None:
            return np.zeros(len(arrivals), dtype=bool)
        index = self.ctx.res_index if idx is None else {self.ctx.res_ids[i]: k for k, i in enumerate(idx)}
        return self.reservations.blocked(self.agent_id, arrivals, index)


def replan_route(view: PlanningView, from_node: str, destination: GeoPoint) -> RouteDecision:
    """Least-cost plan in the most likely future; occupied targets pay the expected circling wait."""
    ctx = view.ctx
    drive = ctx.drive_to_resources(from_node)
    treated = view.avail & ~view.reserved(view.now + drive)
    costs = drive + ctx.walk_vector(destination) + view.claim_wait(treated)
    best = int(np.argmin(costs)) if costs.size else 0
    if not costs.size or not np.isfinite(costs[best]):
        raise NoPathError(f"no resource reachable from {from_node!r}")
    return ctx.toward(view.now, from_node, best)


def _future_probabilities(view: PlanningView, drive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The resources reserved against the agent and the availability at arrival that every sampled
    future thresholds (zero where reserved), given the drive times to every resource."""
    arrivals = view.now + drive
    forced = view.reserved(arrivals)
    probs = view.availability(arrivals)
    probs[forced] = 0.0
    return forced, probs


# Columns of each cost row that every future scans; with at most twice as many resources, the
# bookkeeping costs more than it saves and every column is scanned.
PRUNE_COLUMNS = 96


class FutureMinima:
    """Least cost over resources of ``base[row] + wait`` in every sampled future, per row.

    Future ``f`` finds resource ``c`` available when ``uniforms[c, f] < probs[c]``; otherwise it
    pays the circling wait ``view.t_claim[c]``. ``mins[row, f]`` equals the minimum over the full
    ``(futures x resources)`` cost matrix bit for bit, and ``argmin(row)`` its first argmin; with
    no resources every minimum is ``inf``.

    Each row scans the columns of S in (base, index) order for each future's first available
    one. That column is the exact minimum and first argmin when its base is strictly below
    ``bound[row]``: every later column of S costs at least its base, which is no less (ties have
    a larger index), and every occupied column costs at least ``min(base + t_claim)``. S is every
    column; with more than ``2 * PRUNE_COLUMNS`` resources it is the union of every row's
    ``PRUNE_COLUMNS`` cheapest ``base`` columns, and ``bound`` also takes the row's
    ``(PRUNE_COLUMNS + 1)``-th cheapest base, below which no omitted column costs. Every other
    (row, future) pair is solved over every column.
    """

    def __init__(self, view: PlanningView, base: np.ndarray, uniforms: np.ndarray, probs: np.ndarray):
        n_rows, n_res = base.shape
        n = uniforms.shape[1]
        if n_res == 0:
            self.mins = np.full((n_rows, n), np.inf)
            self._picks = np.zeros((n_rows, n), dtype=int)
            return
        # t_claim = round_trip / p is positive or inf (round_trip_s > 0 is validated), so an
        # occupied column costs at least this, and no column costs less than its base.
        bound = (base + view.t_claim).min(axis=1)
        row = np.arange(n_rows)[:, None]
        if n_res > 2 * PRUNE_COLUMNS:
            part = np.argpartition(base, PRUNE_COLUMNS, axis=1)
            in_s = np.zeros(n_res, dtype=bool)
            in_s[part[:, :PRUNE_COLUMNS]] = True
            cols = np.flatnonzero(in_s)
            np.minimum(bound, base[row[:, 0], part[:, PRUNE_COLUMNS]], out=bound)
            base_s, free = base[:, cols], uniforms[cols] < probs[cols, None]
        else:
            cols, base_s, free = None, base, uniforms < probs[:, None]
        # S is ascending, so a stable sort keeps equal bases in index order.
        order = np.argsort(base_s, axis=1, kind="stable")
        scan = free[order]  # (rows, |S|, futures): availability in each row's (base, index) order
        pos = scan.argmax(axis=1)  # the first available position, or 0 when none is
        first = order[row, pos]
        self.mins = base_s[row, first]
        exact = scan[row, pos, np.arange(n)]
        exact &= self.mins < bound[:, None]
        self._picks = first if cols is None else cols[first]
        rows, futures = np.nonzero(~exact)
        if rows.size:
            full = base[rows] + view.claim_wait(uniforms[:, futures].T < probs)
            self.mins[rows, futures] = full.min(axis=1)
            self._picks[rows, futures] = full.argmin(axis=1)

    def argmin(self, row: int) -> np.ndarray:
        """Cheapest resource index of ``row`` in every future; ties go to the smallest index."""
        return self._picks[row]


def sample_determinizations(
    view: PlanningView, from_node: str, n: int, rng: np.random.Generator
) -> list[Determinization]:
    """Draw ``n`` futures of all resource states at the agent's arrival times."""
    if n < 1:
        raise ValueError("need at least one determinization")
    _, probs = _future_probabilities(view, view.ctx.drive_to_resources(from_node))
    available = rng.random((n, view.ctx.n_resources)) < probs
    return [Determinization(available=row.copy()) for row in available]


def solve_determinization(
    view: PlanningView, from_node: str, det: Determinization, destination: GeoPoint
) -> tuple[str, float]:
    """Cheapest resource in one determinized future; ties go to the smallest id."""
    ctx = view.ctx
    base = ctx.drive_to_resources([from_node]) + ctx.walk_vector(destination)
    # The future whose uniforms are all 0: 0 < p holds exactly where det.available is set.
    future = FutureMinima(view, base, np.zeros((ctx.n_resources, 1)), det.available)
    cost = float(future.mins[0, 0])
    if not np.isfinite(cost):
        raise NoPathError(f"no resource reachable from {from_node!r}")
    return ctx.res_ids[int(future.argmin(0)[0])], cost


def modal_choice(choices: np.ndarray, n: int) -> int:
    """Most frequent index among per-future choices; ties go to the smallest index."""
    return int(np.bincount(choices, minlength=n).argmax())


class ReplanningPolicy:
    """Follow the cached plan while its target stays treated available; otherwise plan again."""

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.ctx = ctx
        self.destination = destination
        self._target: str | None = None

    def decide(self, view: PlanningView, node: str, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        if self._target is not None:
            i = ctx.res_index[self._target]
            if view.avail[i]:
                kept = ctx.toward(view.now, node, i, recomputed=False)
                if not view.reserved([kept.expected_arrival], [i])[0]:
                    return kept
        decision = replan_route(view, node, self.destination)
        self._target = decision.target_resource
        return decision


class HindsightPolicy:
    """One-step look-ahead over the mean optimal cost of sampled futures.

    The uniform variates behind the sampled futures are drawn once per trip
    and held fixed across re-decisions (common random numbers): each decision
    thresholds the same variates against fresh availability predictions, so
    plans change when observations change, not because of resampling noise.
    """

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.ctx = ctx
        self.destination = destination
        settings = settings or PlannerSettings()
        self.n = settings.determinizations
        self.scope_horizon_s = settings.scope_horizon_s
        self._uniforms: np.ndarray | None = None

    def decide(self, view: PlanningView, node: str, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        walk = ctx.walk_vector(self.destination)
        edges = ctx.out_edges[node]
        drive = ctx.drive_to_resources([node] + [e.to_node for e in edges])  # here, then each edge's end
        forced, probs = _future_probabilities(view, drive[0])
        if self._uniforms is None:
            # (resources, futures), so the kernel gathers a column's futures as one contiguous row
            self._uniforms = np.ascontiguousarray(rng.random((self.n, ctx.n_resources)).T)

        # (value, preference rank, id, resource index or out-edge row) per candidate; a spot wins ties.
        candidates: list[tuple[float, int, str, int]] = []
        for ridx in ctx.adjacent_res[node]:
            if view.avail[ridx] and not forced[ridx]:
                candidates.append((float(ctx.res_offset[ridx] + walk[ridx]), 0, ctx.res_ids[ridx], ridx))
        if edges:
            base = drive[1:] + walk
            if self.scope_horizon_s is not None:
                base[:, drive[0] > self.scope_horizon_s] = np.inf
            futures = FutureMinima(view, base, self._uniforms, probs)
            # mins is C-ordered, so each row is summed exactly as the 1-D mean of that row would be,
            # and divided by its count as mean divides.
            means = futures.mins.sum(axis=1) / self.n
            for row, edge in enumerate(edges):
                candidates.append((float(edge.drive_time_s + means[row]), 1, edge.id, row))
        if not candidates:
            raise NoPathError(f"no actions available at {node!r}")
        value, rank, _, k = min(candidates)  # (value, rank, id) never ties: ids are unique per rank
        if not np.isfinite(value):
            raise NoPathError(f"no resource reachable from {node!r}")
        if rank == 0:
            return ctx.toward(view.now, node, k)
        # Commit to the resource chosen most often across the sampled futures.
        modal = modal_choice(futures.argmin(k), ctx.n_resources)
        edge = edges[k]
        return RouteDecision(TakeRoad(edge.id), ctx.res_ids[modal],
                             ctx.arrival(view.now + edge.drive_time_s, edge.to_node, modal))


class RandomPolicy:
    """Drive to the destination street, then take random streets until a spot is found."""

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.ctx = ctx
        self.destination = destination
        self._searching = False
        edge_ids, mid_lat, mid_lon = ctx.street_midpoints()
        dist = great_circle_m_many(mid_lat, mid_lon, destination)
        # The vectorized and scalar formulas may differ in the last ulps, so the
        # streets near the minimum are ranked again with the scalar one: exact
        # ties (both directions of a two-way street) go to the first in graph order.
        best_eid, best_walk = None, np.inf
        for i in np.flatnonzero(dist <= dist.min() + 1e-6):
            w = great_circle_m(GeoPoint(float(mid_lat[i]), float(mid_lon[i])), destination)
            if w < best_walk:
                best_eid, best_walk = edge_ids[i], w
        self.dest_edge = ctx.graph.edges[best_eid]

    def decide(self, view: PlanningView, node: str, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        if not self._searching and node == self.dest_edge.from_node:
            self._searching = True
        if not self._searching:
            return RouteDecision(TakeRoad(ctx.first_hop(node, self.dest_edge.from_node).id))
        edges = ctx.out_edges[node]
        if not edges:
            raise NoPathError(f"dead end at {node!r}")
        # The driver cruises one random street at a time and takes the first
        # free spot on the street it chose, not spots seen on cross streets.
        edge = edges[int(rng.integers(len(edges)))]
        for ridx in ctx.street_spots(edge.id).tolist():
            if view.avail[ridx]:
                return ctx.toward(view.now, node, ridx)
        return RouteDecision(TakeRoad(edge.id))


class HeuristicPolicy:
    """Stand-in for an uninformed human driver.

    Beyond ``far_radius_m`` of the destination the driver just heads there.
    Inside the radius it accepts any currently available adjacent spot whose
    walk stays under a threshold that relaxes linearly with search time, and
    otherwise keeps driving toward, then circling around, the destination.
    """

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.ctx = ctx
        self.destination = destination
        settings = settings or PlannerSettings()
        self.far_radius_m = settings.heuristic_far_radius_m
        self.accept_walk_s = settings.heuristic_accept_walk_s
        self.relax_s_per_min = settings.heuristic_relax_s_per_min
        self.dest_node = ctx.dest_node(destination)
        self._search_started: float | None = None
        self._far: dict[str, bool] = {}  # per node: outside the search radius
        self._circling_pool: list[Edge] | None = None  # streets to circle on from dest_node

    def accept_threshold(self, search_time_s: float) -> float:
        return self.accept_walk_s + self.relax_s_per_min * (search_time_s / 60.0)

    def decide(self, view: PlanningView, node: str, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        if node not in self._far:
            here = ctx.graph.nodes[node].position
            self._far[node] = great_circle_m(here, self.destination) > self.far_radius_m
        if self._far[node] and node != self.dest_node:
            return RouteDecision(TakeRoad(ctx.first_hop(node, self.dest_node).id))
        if self._search_started is None:
            self._search_started = view.now
        threshold = self.accept_threshold(view.now - self._search_started)
        walk = ctx.walk_vector(self.destination)
        best_ridx, best_walk = None, np.inf
        for ridx in ctx.adjacent_res[node]:
            if view.avail[ridx] and walk[ridx] <= threshold and walk[ridx] < best_walk:
                best_ridx, best_walk = ridx, walk[ridx]
        if best_ridx is not None:
            return ctx.toward(view.now, node, best_ridx)
        if node != self.dest_node:
            return RouteDecision(TakeRoad(ctx.first_hop(node, self.dest_node).id))
        if self._circling_pool is None:
            self._circling_pool = self._circling_streets(ctx)
        pool = self._circling_pool
        return RouteDecision(TakeRoad(pool[int(rng.integers(len(pool)))].id))

    def _circling_streets(self, ctx: PlannerContext) -> list[Edge]:
        """Streets out of dest_node ending inside the search radius, else the one ending closest."""
        edges = ctx.out_edges[self.dest_node]
        if not edges:
            raise NoPathError(f"dead end at {self.dest_node!r}")
        dist = great_circle_m_many(
            np.array([ctx.graph.nodes[e.to_node].position.lat for e in edges]),
            np.array([ctx.graph.nodes[e.to_node].position.lon for e in edges]),
            self.destination,
        )
        inside = [e for e, d in zip(edges, dist) if d <= self.far_radius_m]
        return inside if inside else [edges[int(np.argmin(dist))]]


@dataclass(frozen=True)
class PlannerKind:
    policy: type
    shares: str | None = None  # fleet state its agents share: "reservations" or "overlay"
    base: str | None = None  # the single-agent kind a fleet variant is measured against


# Every planner kind, in the order studies and summaries list them.
PLANNERS = {
    "random": PlannerKind(RandomPolicy),
    "heuristic": PlannerKind(HeuristicPolicy),
    "rpl": PlannerKind(ReplanningPolicy),
    "hs": PlannerKind(HindsightPolicy),
    "rpl_r": PlannerKind(ReplanningPolicy, "reservations", "rpl"),
    "hs_r": PlannerKind(HindsightPolicy, "reservations", "hs"),
    "hs_a": PlannerKind(HindsightPolicy, "overlay", "hs"),
}
PLANNER_KINDS = tuple(PLANNERS)


def make_policy(kind: str, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
    if kind not in PLANNERS:
        raise ValueError(f"unknown planner kind {kind!r}; expected one of {PLANNER_KINDS}")
    return PLANNERS[kind].policy(ctx, destination, settings)
