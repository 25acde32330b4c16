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

from .availability import AdaptionOverlay, CtmcParams, availability_after_rates, expected_wait_times_rates
from .errors import ConfigError, NoPathError
from .fleet import ReservationTable
from .geo import GeoPoint, great_circle_m, great_circle_m_many, walking_time_many
from .graph import Edge, RoadGraph, TravelTimeMatrix


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
    q_estimates: dict[str, float] | None = None
    recomputed: bool = True


@dataclass(frozen=True)
class Determinization:
    """One sampled future: availability of every in-scope resource at the agent's arrival time."""

    available: np.ndarray  # bool, aligned with PlannerContext.res_ids
    seed: int | None = None


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
    """Precomputed arrays shared by every policy evaluation on one graph."""

    def __init__(self, graph: RoadGraph, matrix: TravelTimeMatrix):
        self.graph = graph
        self.matrix = matrix
        self.M = matrix.values
        self.node_ids = matrix.node_ids
        self.node_index = matrix.node_index
        self.node_lat = np.array([graph.nodes[n].position.lat for n in self.node_ids])
        self.node_lon = np.array([graph.nodes[n].position.lon for n in self.node_ids])

        self.res_ids: tuple[str, ...] = tuple(graph.resources)
        self.res_index = {rid: i for i, rid in enumerate(self.res_ids)}
        res = [graph.resources[rid] for rid in self.res_ids]
        self.res_edge_ids = [r.edge_id for r in res]
        self.res_from_idx = np.array(
            [self.node_index[graph.edges[r.edge_id].from_node] for r in res], dtype=int
        )
        self.res_offset = np.array([r.offset_s for r in res])
        self.res_t_tr = np.array([r.round_trip_s for r in res])
        self.res_lat = np.array([r.position.lat for r in res])
        self.res_lon = np.array([r.position.lon for r in res])

        self.out_edges: dict[str, list[Edge]] = {
            nid: [graph.edges[eid] for eid in graph.out_edges[nid]] for nid in graph.nodes
        }
        adj: dict[str, list[int]] = {nid: [] for nid in graph.nodes}
        for i, r in enumerate(res):
            adj[graph.edges[r.edge_id].from_node].append(i)
        self.adjacent_res: dict[str, tuple[int, ...]] = {
            nid: tuple(sorted(ids, key=lambda i: (self.res_edge_ids[i], self.res_offset[i], self.res_ids[i])))
            for nid, ids in adj.items()
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

    def drive_to_resources(self, node: str) -> np.ndarray:
        """Drive seconds from a node to every resource (via its edge start, then the offset)."""
        return self.M[self.node_index[node], self.res_from_idx] + self.res_offset

    def first_hop(self, from_node: str, to_node: str) -> Edge:
        """Edge starting a least-time path; ties resolve to the smallest edge id."""
        if from_node == to_node:
            raise ValueError("already at the target node")
        ti = self.node_index[to_node]
        best: Edge | None = None
        best_cost = np.inf
        for e in self.out_edges[from_node]:
            c = e.drive_time_s + self.M[self.node_index[e.to_node], ti]
            if c < best_cost:
                best, best_cost = e, c
        if best is None or not np.isfinite(best_cost):
            raise NoPathError(f"no path from {from_node!r} to {to_node!r}")
        return best

    def action_toward(self, node: str, ridx: int) -> Action:
        """Claim resource ``ridx`` if its street starts at ``node``, else take the first hop toward it."""
        decision_node = self.node_ids[self.res_from_idx[ridx]]
        if decision_node == node:
            return TakeResource(self.res_ids[ridx])
        return TakeRoad(self.first_hop(node, decision_node).id)


@dataclass
class PlanningView:
    """Immutable snapshot handed to a policy for one decision.

    ``lam_vec``/``mu_vec`` carry per-resource flip rates; they default to the
    global pair in ``params`` when the scenario does not override them.
    ``t_claim`` is the expected circling wait at each resource.
    """

    ctx: PlannerContext
    now: float
    avail: np.ndarray  # current availability per resource, aligned with ctx.res_ids
    params: CtmcParams
    reservations: ReservationTable | None = None
    overlay: AdaptionOverlay | None = None
    agent_id: str | None = None
    lam_vec: np.ndarray | None = None
    mu_vec: np.ndarray | None = None
    t_claim: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.ctx.n_resources
        if self.lam_vec is None:
            self.lam_vec = np.full(n, self.params.lam)
        if self.mu_vec is None:
            self.mu_vec = np.full(n, self.params.mu)
        if self.t_claim is None:
            self.t_claim = expected_wait_times_rates(self.lam_vec, self.mu_vec, self.ctx.res_t_tr)

    def availability(self, at: np.ndarray | float, idx=None) -> np.ndarray:
        """Predicted availability at ``at`` of every resource, or of the resource indices ``idx``.

        ``at`` is one time or one time per resource. Overlay deltas active by
        then are subtracted and the result clamped to [0, 1]. The viewing
        agent's own deltas are not subtracted, mirroring how reservations never
        block their holder.
        """
        sel = slice(None) if idx is None else idx
        p = availability_after_rates(self.lam_vec[sel], self.mu_vec[sel], at - self.now, self.avail[sel])
        if self.overlay is not None and len(self.overlay):
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


def _reserved_against(view: PlanningView, arrivals: np.ndarray) -> np.ndarray:
    """Resources another fleet agent will reach no later than this agent."""
    if view.reservations is None:
        return np.zeros(view.ctx.n_resources, dtype=bool)
    return view.reservations.blocked(view.agent_id, arrivals, view.ctx.res_index)


def replan_route(view: PlanningView, from_node: str, destination: GeoPoint) -> RouteDecision:
    """Least-cost plan in the most likely future; occupied targets pay the expected circling wait."""
    ctx = view.ctx
    drive = ctx.drive_to_resources(from_node)
    arrivals = view.now + drive
    treated = view.avail & ~_reserved_against(view, arrivals)
    costs = drive + ctx.walk_vector(destination) + view.claim_wait(treated)
    best = int(np.argmin(costs))
    if not np.isfinite(costs[best]):
        raise NoPathError(f"no resource reachable from {from_node!r}")
    action = ctx.action_toward(from_node, best)
    return RouteDecision(
        action,
        target_resource=ctx.res_ids[best],
        expected_arrival=float(view.now + drive[best]),
        q_estimates={_action_key(action): float(costs[best])},
        recomputed=True,
    )


def _future_probabilities(view: PlanningView, from_node: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive times from ``from_node``, the resources reserved against the agent, and the
    availability at arrival that every sampled future thresholds (zero where reserved)."""
    drive = view.ctx.drive_to_resources(from_node)
    arrivals = view.now + drive
    forced = _reserved_against(view, arrivals)
    probs = view.availability(arrivals)
    probs[forced] = 0.0
    return drive, forced, probs


def _future_costs(view: PlanningView, node: str, walk: np.ndarray, wait: np.ndarray,
                  out_of_scope: np.ndarray | None = None) -> np.ndarray:
    """Cost of taking each resource from ``node`` in each sampled future: drive, walk, and the
    circling ``wait`` where that future has the resource occupied."""
    base = view.ctx.drive_to_resources(node) + walk
    if out_of_scope is not None:
        base = np.where(out_of_scope, np.inf, base)
    return base + wait


def sample_determinizations(
    view: PlanningView, from_node: str, n: int, rng: np.random.Generator
) -> list[Determinization]:
    """Draw ``n`` futures of all resource states at the agent's arrival times."""
    if n < 1:
        raise ValueError("need at least one determinization")
    _, _, probs = _future_probabilities(view, from_node)
    available = rng.random((n, view.ctx.n_resources)) < probs
    return [Determinization(available=row.copy()) for row in available]


def solve_determinization(
    view: PlanningView, from_node: str, det: Determinization, destination: GeoPoint
) -> tuple[str, float]:
    """Cheapest resource in one determinized future; ties go to the smallest id."""
    costs = _future_costs(view, from_node, view.ctx.walk_vector(destination), view.claim_wait(det.available))
    best = int(np.argmin(costs))
    if not np.isfinite(costs[best]):
        raise NoPathError(f"no resource reachable from {from_node!r}")
    return view.ctx.res_ids[best], float(costs[best])


def _action_key(action: Action) -> str:
    return f"road:{action.edge}" if isinstance(action, TakeRoad) else f"resource:{action.resource}"


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
            # (now + M) + offset, not replan_route's now + (M + offset): the last ulp decides equal-arrival
            # reservation ties, and regrouping this sum moves the config-single_destination_demo golden.
            arrival = view.now + ctx.M[ctx.node_index[node], ctx.res_from_idx[i]] + ctx.res_offset[i]
            if view.avail[i] and (view.reservations is None
                                  or not view.reservations.blocked(view.agent_id, [arrival], {self._target: 0})[0]):
                return RouteDecision(ctx.action_toward(node, i), self._target, float(arrival), recomputed=False)
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
        drive_here, forced, probs = _future_probabilities(view, node)
        if self._uniforms is None:
            self._uniforms = rng.random((self.n, ctx.n_resources))
        wait = view.claim_wait(self._uniforms < probs)
        out_of_scope = None if self.scope_horizon_s is None else drive_here > self.scope_horizon_s

        # (value, preference rank, id, action, per-future costs) per candidate; TakeResource wins ties.
        candidates: list[tuple[float, int, str, Action, np.ndarray | None]] = []
        for ridx in ctx.adjacent_res[node]:
            if view.avail[ridx] and not forced[ridx]:
                rid = ctx.res_ids[ridx]
                candidates.append((float(ctx.res_offset[ridx] + walk[ridx]), 0, rid, TakeResource(rid), None))
        for edge in ctx.out_edges[node]:
            costs = _future_costs(view, edge.to_node, walk, wait, out_of_scope)
            value = float(edge.drive_time_s + costs.min(axis=1).mean())
            candidates.append((value, 1, edge.id, TakeRoad(edge.id), costs))
        if not candidates:
            raise NoPathError(f"no actions available at {node!r}")
        candidates.sort(key=lambda c: c[:3])
        value, _, _, action, costs = candidates[0]
        if not np.isfinite(value):
            raise NoPathError(f"no resource reachable from {node!r}")

        q_estimates = {_action_key(c[3]): c[0] for c in candidates}
        if isinstance(action, TakeResource):
            ridx = ctx.res_index[action.resource]
            return RouteDecision(
                action, action.resource, float(view.now + ctx.res_offset[ridx]), q_estimates
            )
        # Commit to the resource chosen most often across the sampled futures.
        modal = modal_choice(costs.argmin(axis=1), ctx.n_resources)
        edge = ctx.graph.edges[action.edge]
        # Summed left to right, not as replan_route's now + (M + offset): the last ulp decides
        # equal-arrival reservation ties, and regrouping this sum moves the competition-hs_r goldens.
        arrival = (view.now + edge.drive_time_s + ctx.M[ctx.node_index[edge.to_node], ctx.res_from_idx[modal]]
                   + ctx.res_offset[modal])
        return RouteDecision(action, ctx.res_ids[modal], float(arrival), q_estimates)


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
        for rid in ctx.graph.resources_by_edge[edge.id]:
            ridx = ctx.res_index[rid]
            if view.avail[ridx]:
                return RouteDecision(
                    TakeResource(rid), rid, float(view.now + ctx.res_offset[ridx])
                )
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
            rid = ctx.res_ids[best_ridx]
            return RouteDecision(TakeResource(rid), rid, float(view.now + ctx.res_offset[best_ridx]))
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
