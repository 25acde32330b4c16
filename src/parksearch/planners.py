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
tie-breaks resolve to the smallest id everywhere. Policies see nodes, streets
and spots as ``PlannerContext`` indices (``ctx.node_ids[i]``, ``ctx.edge_ids[i]``
and ``ctx.res_ids[i]`` are the ids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .availability import AdaptionOverlay, AvailabilityRates
from .errors import NoPathError, check_number
from .fleet import ReservationTable
from .geo import GeoPoint, great_circle_m_many, latitude_band, walking_time_many
from .graph import DriveTimes, RoadGraph


# Decisions are slotted records, made once per decision: equal by type and value, not hashable.
@dataclass(slots=True)
class TakeRoad:
    edge: int  # street index


@dataclass(slots=True)
class TakeResource:
    resource: int  # spot index


Action = TakeRoad | TakeResource


@dataclass(slots=True)
class RouteDecision:
    action: Action
    target_resource: int | None = None  # spot index
    expected_arrival: float | None = None
    recomputed: bool = True


# Each field's metadata holds its check_number bounds (empty: a positive number); a None default allows None.
@dataclass(frozen=True)
class PlannerSettings:
    determinizations: int = field(default=100, metadata={"integer": True})
    scope_horizon_s: float | None = None
    heuristic_far_radius_m: float = field(default=500.0, metadata={"positive": False})
    heuristic_accept_walk_s: float = field(default=120.0, metadata={"positive": False})
    heuristic_relax_s_per_min: float = field(default=10.0, metadata={"positive": False})
    adaption_samples: int = field(default=30, metadata={"integer": True})
    adaption_isochrone_s: float = 300.0
    adaption_visit_decay: float = field(default=0.95, metadata={"positive": False})
    adaption_max_steps: int = field(default=1000, metadata={"integer": True, "positive": False})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:  # kept as a Python number, numpy scalars too
                object.__setattr__(self, f.name, check_number(value, f.name, **f.metadata))


class PlannerContext:
    """Precomputed arrays shared by every policy evaluation on one graph; ``times`` are the least
    drive seconds between node pairs in ``graph.nodes`` order (a ``DriveTimes``, whose rows are
    searched on first read), read only by the context's methods, which read whole forward rows.

    Inside a run a node is its index in ``graph.nodes``, a street its index in ``graph.edges`` and a
    spot its index in ``graph.resources``; each dict is in id order, so index order is id order.
    Per street the context keeps its ids, ends and drive time, and its spots by offset, then index;
    per node its out-streets in id order and the spots along them in turn.

    ``walk_vector`` keeps each destination's walking seconds from every spot. ``dest_node`` and
    ``taxi_time`` keep only their answers, per destination and per (start, destination), each from a
    node walk vector computed for that miss alone.
    """

    def __init__(self, graph: RoadGraph, times: DriveTimes):
        n = len(graph.nodes)
        if np.shape(times) != (n, n):
            raise ValueError(f"drive times must be {n}x{n} for the graph's nodes, got shape {np.shape(times)}")
        self.graph = graph
        self.times = times
        self.node_ids: tuple[str, ...] = tuple(graph.nodes)
        self.node_index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.node_lat = np.array([v.position.lat for v in graph.nodes.values()])
        self.node_lon = np.array([v.position.lon for v in graph.nodes.values()])

        self.edge_ids: tuple[str, ...] = tuple(graph.edges)
        self.edge_from = [self.node_index[e.from_node] for e in graph.edges.values()]
        self.edge_to = [self.node_index[e.to_node] for e in graph.edges.values()]
        self.edge_time = [e.drive_time_s for e in graph.edges.values()]
        self.out_edges: list[list[int]] = [[] for _ in range(n)]
        for street, node in enumerate(self.edge_from):
            self.out_edges[node].append(street)
        ends = np.array([self.edge_from, self.edge_to], dtype=np.intp)
        self.street_mid_lat = (self.node_lat[ends[0]] + self.node_lat[ends[1]]) / 2.0
        self.street_mid_lon = (self.node_lon[ends[0]] + self.node_lon[ends[1]]) / 2.0

        self.res_ids: tuple[str, ...] = tuple(graph.resources)
        self.res_index = {rid: i for i, rid in enumerate(self.res_ids)}
        res = self.resources = tuple(graph.resources.values())  # the Resource at each index
        edge_index = {eid: i for i, eid in enumerate(self.edge_ids)}
        self.res_edge = np.array([edge_index[r.edge_id] for r in res], dtype=np.intp)
        self.res_from_idx = ends[0][self.res_edge]
        self.res_offset = np.array([r.offset_s for r in res])
        self.res_t_tr = np.array([r.round_trip_s for r in res])
        self.res_lat = np.array([r.position.lat for r in res])
        self.res_lon = np.array([r.position.lon for r in res])
        # lexsort is stable, so spots at one offset on a street stay in index order
        order = np.lexsort((self.res_offset, self.res_edge))
        cut = np.searchsorted(self.res_edge[order], np.arange(len(self.edge_ids) + 1))
        self.street_spots = [order[a:b] for a, b in zip(cut[:-1].tolist(), cut[1:].tolist())]
        self.adjacent_res = [[r for s in out for r in self.street_spots[s].tolist()] for out in self.out_edges]

        self._walk_cache: dict[tuple[float, float], np.ndarray] = {}
        self._dest_node: dict[tuple[float, float], int] = {}
        self._taxi: dict[tuple[int, float, float], float] = {}
        self._isochrone_cache: dict[tuple[int, float], frozenset[int]] = {}
        # the engine's last synthesized trace on this graph and its key (see run_simulation)
        self.synthesized: tuple[tuple, object] | None = None

    @property
    def n_resources(self) -> int:
        return len(self.res_ids)

    def walk_vector(self, destination: GeoPoint) -> np.ndarray:
        key = (destination.lat, destination.lon)
        if key not in self._walk_cache:
            self._walk_cache[key] = walking_time_many(self.res_lat, self.res_lon, destination)
        return self._walk_cache[key]

    def dest_node(self, destination: GeoPoint) -> int:
        """Node whose position is walk-closest to the destination."""
        key = (destination.lat, destination.lon)
        if key not in self._dest_node:
            self._dest_node[key] = int(np.argmin(walking_time_many(self.node_lat, self.node_lon, destination)))
        return self._dest_node[key]

    def drive_time(self, from_node: int, to_node: int) -> float:
        """Least drive seconds between two nodes; ``inf`` when unreachable."""
        return float(self.times[from_node][to_node])

    def isochrone(self, around: int, limit_s: float) -> frozenset[int]:
        """Nodes from which ``around`` can be reached within ``limit_s`` of driving, built on first use."""
        key = (around, limit_s)
        if key not in self._isochrone_cache:
            self._isochrone_cache[key] = frozenset(self.times.reaching(around, limit_s).tolist())
        return self._isochrone_cache[key]

    def taxi_time(self, start: int, destination: GeoPoint) -> float:
        """Trip time with a drop-off as close to the destination as any node allows."""
        key = (start, destination.lat, destination.lon)
        if key not in self._taxi:
            walk = walking_time_many(self.node_lat, self.node_lon, destination)
            self._taxi[key] = float(np.min(self.times[start] + walk))
        return self._taxi[key]

    def drive_to_resources(self, nodes: int | list[int], spots: np.ndarray | None = None) -> np.ndarray:
        """Drive seconds (via a resource's edge start, then its offset) to every resource, or to the
        resource indices ``spots``, from a node, or one C-ordered row per node of a list."""
        times = self.times
        rows = np.array([times[node] for node in nodes]) if isinstance(nodes, list) else times[nodes]
        starts, offset = self.res_from_idx, self.res_offset
        if spots is not None:
            starts, offset = starts.take(spots), offset.take(spots)
        out = rows.take(starts, axis=-1)
        out += offset
        return out

    def first_hop(self, from_node: int, to_node: int) -> int:
        """Street starting a least-time path; ties resolve to the smallest street index, which is id order."""
        if from_node == to_node:
            raise ValueError("already at the target node")
        times, best, best_cost = self.times, -1, np.inf
        for street in self.out_edges[from_node]:
            c = self.edge_time[street] + times[self.edge_to[street]].item(to_node)
            if c < best_cost:
                best, best_cost = street, c
        if not best_cost < np.inf:
            raise NoPathError(f"no path from {self.node_ids[from_node]!r} to {self.node_ids[to_node]!r}")
        return best

    def arrival(self, now: float, node: int, ridx: int) -> float:
        """Arrival at resource ``ridx`` leaving ``node`` at ``now``: ``now + drive_to_resources(node)[ridx]``
        bit for bit. Every planner's arrival at a spot is this one sum, so reservations compare
        predictions made alike. Python floats throughout, so a float ``now`` gives a float."""
        return now + (self.times[node].item(self.res_from_idx.item(ridx)) + self.res_offset.item(ridx))

    def toward(self, now: float, node: int, ridx: int, recomputed: bool = True) -> RouteDecision:
        """Claim resource ``ridx`` if its street starts at ``node``, else take the first hop toward it."""
        start = self.res_from_idx.item(ridx)
        action = TakeResource(ridx) if start == node else TakeRoad(self.first_hop(node, start))
        return RouteDecision(action, ridx, self.arrival(now, node, ridx), recomputed)


@dataclass
class PlanningView:
    """What a policy sees at one decision.

    The engine keeps one view per agent for the whole run and sets ``now`` before each of
    that agent's decisions. ``avail`` is the engine's live availability array, not a copy:
    later trace flips and claims overwrite it, so a view describes the world only at ``now``.
    ``rates`` are the run's per-resource flip rates and ``t_claim`` the expected circling wait at
    each resource under them; ``run_simulation`` builds both once per run. ``least_claim``,
    ``min(offset + t_claim)``, is a lower bound on the cost of any plan that pays one: drive and
    walk seconds are never negative and rounding is monotone, so such a spot's
    ``(drive + walk) + t_claim`` is at least its ``offset + t_claim`` (``inf`` without spots).
    Every view of a run shares that run's arrays. ``agent_id`` is the agent's index in the run,
    which orders agents as their ids do.
    """

    ctx: PlannerContext
    now: float
    avail: np.ndarray  # current availability per resource, aligned with ctx.res_ids
    rates: AvailabilityRates
    t_claim: np.ndarray
    reservations: ReservationTable | None = None
    overlay: AdaptionOverlay | None = None
    agent_id: int | None = None
    least_claim: float = field(init=False)

    def __post_init__(self) -> None:
        self.least_claim = float((self.ctx.res_offset + self.t_claim).min(initial=np.inf))

    def availability(self, at: np.ndarray | float, idx=None) -> np.ndarray:
        """Predicted availability at ``at`` of every resource, or of the distinct resource indices ``idx``.

        ``at`` is one time, or one time per resource (per index with ``idx``).
        Overlay deltas active by then are subtracted and the result clamped to
        [0, 1]. The viewing agent's own deltas are not subtracted, mirroring how
        reservations never block their holder.
        """
        p = self.rates.after(at - self.now, self.avail if idx is None else self.avail[idx], idx)
        if self.overlay:
            n = len(self.avail)
            if idx is not None and np.ndim(at):
                at_idx, at = at, np.full(n, -np.inf)  # spots outside idx count no delta
                at[idx] = at_idx
            sub = self.overlay.subtraction(n, at, self.agent_id)
            p -= sub if idx is None else sub[idx]
            np.clip(p, 0.0, 1.0, out=p)
        return p

    def claim_wait(self, available: np.ndarray) -> np.ndarray:
        """Extra cost per resource: nothing where available, the expected circling wait where occupied."""
        return np.where(available, 0.0, self.t_claim)


def replan_route(view: PlanningView, from_node: int, destination: GeoPoint) -> RouteDecision:
    """Least-cost plan in the most likely future; occupied targets pay the expected circling wait.

    The treated-available spots (free now, and no fleet agent reaches them first; arrivals are
    priced only at reserved spots) are priced first, in index order: their cheapest is the plan when
    it costs strictly less than ``view.least_claim``, as every other spot costs at least that. Only
    otherwise is every spot priced; both give the full vector's first argmin, bit for bit.
    """
    ctx = view.ctx
    walk = ctx.walk_vector(destination)
    treated = view.avail.copy()
    if view.reservations is not None:
        treated[view.reservations.blocked_spots(
            view.agent_id, lambda spots: view.now + ctx.drive_to_resources(from_node, spots))] = False
    free = treated.nonzero()[0]
    if free.size:
        costs = ctx.drive_to_resources(from_node, free) + walk.take(free)
        best = int(np.argmin(costs))
        if costs[best] < view.least_claim:
            return ctx.toward(view.now, from_node, int(free[best]))
    costs = ctx.drive_to_resources(from_node) + walk + view.claim_wait(treated)
    best = int(np.argmin(costs)) if costs.size else 0
    if not costs.size or not np.isfinite(costs[best]):
        raise NoPathError(f"no resource reachable from {ctx.node_ids[from_node]!r}")
    return ctx.toward(view.now, from_node, best)


def _future_probabilities(view: PlanningView, drive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The resources reserved against the agent and the availability at arrival that every sampled
    future thresholds (zero where reserved), given the drive times to every resource."""
    arrivals = view.now + drive
    forced = np.zeros(len(arrivals), dtype=bool)
    if view.reservations is not None:
        forced[view.reservations.blocked_spots(view.agent_id, arrivals.take)] = True
    probs = view.availability(arrivals)
    probs[forced] = 0.0
    return forced, probs


# How many spots nearest its destination by walk a hindsight trip scans first; with no more spots, all.
CANDIDATES = 160
RANK_POWERS = 4.0 ** np.arange(511, 0, -1)  # 4.0**511 is the largest power of four float64 holds


class HindsightPlan:
    """The static half of hindsight at one node, from ``(t_claim, base)`` and the trip's ``candidates``
    alone, so one plan serves every decision that shares them. ``solve`` gives each out-edge row's least
    cost of ``base[row] + wait`` in every future ``f``, where resource ``c`` is available when
    ``drawn[f, c] < probs[c]`` and otherwise pays ``t_claim[c]``, and its first argmin; both equal the full
    ``(futures x resources)`` cost matrix's bit for bit (``inf`` and 0 with no resources). ``candidates``
    is ``(cols, claim_on)``: the ascending candidate spots, and ``t_claim`` on them and 0 elsewhere.

    No spot costs less than its base, nor an occupied candidate less than base + ``t_claim`` (positive or
    inf, as ``round_trip_s > 0`` is validated), so only a free candidate can cost less than ``bound[row]
    = min(base + claim_on)``, and a future's first free candidate in (base, index) order is exact when its
    base is strictly below it: later ones cost at least their base (ties have a larger index). Other pairs
    are solved over every column. The order is kept as weights, the number of candidates minus a place
    (0 means none, base inf), and as rank powers ``power = 4.0**weight``. A future's free powers below
    the largest sum to less than a third of it, and a rounded sum of non-negative terms is never below
    its largest term, so the binary exponent of the sum, ``2 * weight + 1``, names the first free
    candidate whatever the summation order; ``4.0**511`` is the largest such power in float64, so a plan
    takes at most 511 candidates. Bases are sorted by the default kind, and again stably (``cols`` is
    ascending, so equal bases keep index order) only when two are equal.
    """

    def __init__(self, t_claim: np.ndarray, base: np.ndarray, candidates: tuple[np.ndarray, np.ndarray]):
        self.t_claim, self.base, self.power = t_claim, base, None
        n_rows, n_res = base.shape
        if n_res == 0:
            return
        self.cols, claim_on = candidates
        n_s = self.cols.size
        if n_s > RANK_POWERS.size:
            raise ValueError(f"a hindsight plan takes at most 511 candidates, got {n_s}")
        self.bound = (base + claim_on).min(axis=1)[:, None]
        row = np.arange(n_rows)[:, None]
        bases = base.take(self.cols, axis=1)
        order = np.argsort(bases, axis=1)
        ranked = bases.take(flat := order + row * n_s)  # the same values whichever equal bases the sort swapped
        if (ranked[:, 1:] == ranked[:, :-1]).any():
            order = np.argsort(bases, axis=1, kind="stable")
            flat = order + row * n_s
        self.power = np.empty((n_rows, n_s))
        self.power.put(flat, RANK_POWERS[-n_s:])  # each row's powers, from 4.0**n_s down
        # per row, the resource index and the base of each weight's column, from weight 0 (none) up
        self.column = np.zeros((n_rows, n_s + 1), dtype=np.intp)
        self.column[:, :0:-1] = self.cols.take(order)
        self.value = np.empty((n_rows, n_s + 1))
        self.value[:, 0], self.value[:, 1:] = np.inf, ranked[:, ::-1]
        self.offset = row * (n_s + 1)  # where each row starts in value and column, flattened

    def solve(self, drawn: np.ndarray, kernel: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(rows, futures)`` minima, C-ordered, and their first argmins, given the ``(futures,
        resources)`` uniforms (read only as ``drawn[futures]``, so ``DrawnRows`` will do), the candidates'
        ones as ``(candidates, futures)`` and the availability at arrival per resource."""
        n = kernel.shape[1]
        if self.power is None:
            return np.full((len(self.base), n), np.inf), np.zeros((len(self.base), n), dtype=int)
        free = kernel < probs.take(self.cols)[:, None]
        first = (np.frexp(self.power @ free)[1] >> 1) + self.offset  # each future's first free candidate
        mins, picks = self.value.take(first), self.column.take(first)
        rows, futures = np.nonzero(~(mins < self.bound))
        if rows.size:
            full = self.base[rows] + np.where(drawn[futures] < probs, 0.0, self.t_claim)
            mins[rows, futures] = full.min(axis=1)
            picks[rows, futures] = full.argmin(axis=1)
        return mins, picks


class DrawnRows:
    """Rows ``[futures]`` of the ``(futures, spots)`` uniforms ``random`` draws from a bit generator's state, bit for
    bit: a float64 takes one output, so PCG64 jumps ``f * spots`` outputs to row ``f``; others draw and discard."""

    def __init__(self, bit_generator: np.random.BitGenerator, n_spots: int):
        self.state, self.kind, self.n_spots, self._rng = bit_generator.state, type(bit_generator), n_spots, None

    def __getitem__(self, futures: np.ndarray) -> np.ndarray:
        self._rng = self._rng or np.random.Generator(self.kind(0))  # at a trip's first fallback; seed overwritten
        self._rng.bit_generator.state, rows, at, last = self.state, np.empty((futures.size, self.n_spots)), 0, 0
        skip = self._rng.bit_generator.advance if self.kind is np.random.PCG64 else self._rng.random
        for f, i in sorted(zip(futures.tolist(), range(futures.size))):  # in stream order
            if f < at:  # a repeat of the row just drawn
                rows[i] = rows[last]
            else:
                skip((f - at) * self.n_spots)  # the rows between (Philox's advance would count blocks of four)
                self._rng.random(out=rows[i])
            at, last = f + 1, i
        return rows


def modal_choice(choices: np.ndarray, n: int) -> int:
    """Most frequent index among per-future choices; ties go to the smallest index."""
    return int(np.bincount(choices, minlength=n).argmax())


class ReplanningPolicy:
    """Follow the cached plan while its target stays treated available; otherwise plan again."""

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.destination = destination
        self._target: int | None = None

    def decide(self, view: PlanningView, node: int, rng: np.random.Generator) -> RouteDecision:
        i = self._target
        if i is not None and view.avail[i]:
            kept = view.ctx.toward(view.now, node, i, recomputed=False)
            if view.reservations is None or not view.reservations.spot_blocked(view.agent_id, i, kept.expected_arrival):
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

    The trip keeps only its candidates' uniforms (the ``CANDIDATES`` spots nearest the destination by walk, or
    all) as a contiguous ``(candidates, futures)`` kernel, drawn in row blocks no larger than it; a fallback over
    every spot reads its rows from ``DrawnRows``. A decision finds each out-edge's first free candidate in every
    future with one product of the plan's rank powers and the kernel's free mask (see ``HindsightPlan``).

    A node's plan (drive times from it and its out-edges' ``HindsightPlan``) depends only on the
    node, the destination, the scope and the run's ``t_claim``. ``plans``, a dict by node that
    ``run_simulation`` shares among a destination's hindsight agents, keeps them; ``None`` keeps none.
    """

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.destination = destination
        self.settings = settings or PlannerSettings()
        self.plans: dict[int, tuple[np.ndarray, HindsightPlan | None]] | None = None
        self._rows: DrawnRows | None = None

    def _plan(self, view: PlanningView, node: int) -> tuple[np.ndarray, HindsightPlan | None]:
        """Drive times from ``node`` to every resource, and the plan of its out-edges (None without any)."""
        entry = None if self.plans is None else self.plans.get(node)
        if entry is None:
            ctx, edges = view.ctx, view.ctx.out_edges[node]
            drive = ctx.drive_to_resources([node] + [ctx.edge_to[s] for s in edges])  # here, then each edge's end
            base = drive[1:] + ctx.walk_vector(self.destination)
            if self.settings.scope_horizon_s is not None:
                base[:, drive[0] > self.settings.scope_horizon_s] = np.inf
            entry = drive[0], HindsightPlan(view.t_claim, base, self._candidates) if edges else None
            if self.plans is not None:
                self.plans[node] = entry
        return entry

    def decide(self, view: PlanningView, node: int, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        walk = ctx.walk_vector(self.destination)
        if self._rows is None:
            n, n_res = self.settings.determinizations, ctx.n_resources
            cols = np.sort(np.argpartition(walk, CANDIDATES)[:CANDIDATES]) if n_res > CANDIDATES else np.arange(n_res)
            self._candidates = cols, np.bincount(cols, view.t_claim[cols], n_res)  # t_claim on them, 0 elsewhere
            self._rows, kernel = DrawnRows(rng.bit_generator, n_res), np.empty((n, cols.size))
            block = np.empty((max(1, n * cols.size // max(n_res, 1)), n_res))  # no larger than the kernel
            for start in range(0, n, len(block)):
                rng.random(out=block[:n - start])
                block[:n - start].take(cols, axis=1, out=kernel[start:start + len(block)], mode="clip")
            self._kernel = np.ascontiguousarray(kernel.T)
        here, plan = self._plan(view, node)
        forced, probs = _future_probabilities(view, here)

        # (value, preference rank, resource index or out-edge row) per action; a spot wins ties, and
        # index and row order are id order.
        actions: list[tuple[float, int, int]] = []
        for ridx in ctx.adjacent_res[node]:
            if view.avail[ridx] and not forced[ridx]:
                actions.append((float(ctx.res_offset[ridx] + walk[ridx]), 0, ridx))
        edges = ctx.out_edges[node]
        if plan is not None:
            mins, picks = plan.solve(self._rows, self._kernel, probs)
            # mins is C-ordered, so each row is summed exactly as the 1-D mean of that row would be,
            # and divided by its count as mean divides.
            means = mins.sum(axis=1) / self.settings.determinizations
            for row, street in enumerate(edges):
                actions.append((float(ctx.edge_time[street] + means[row]), 1, row))
        if not actions:
            raise NoPathError(f"no actions available at {ctx.node_ids[node]!r}")
        value, rank, k = min(actions)
        if not np.isfinite(value):
            raise NoPathError(f"no resource reachable from {ctx.node_ids[node]!r}")
        if rank == 0:
            return ctx.toward(view.now, node, k)
        # Commit to the resource chosen most often across the sampled futures.
        modal = modal_choice(picks[k], ctx.n_resources)
        street = edges[k]
        return RouteDecision(TakeRoad(street), modal,
                             ctx.arrival(view.now + ctx.edge_time[street], ctx.edge_to[street], modal))


class RandomPolicy:
    """Drive to the destination street, then take random streets until a spot is found."""

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.destination = destination
        self._searching = False
        # the street whose midpoint is nearest, exact ties (both directions of a two-way street) to the
        # first index; None without streets. The haversine runs on the latitude band as wide as a
        # flat-map guess's distance: every street outside it is strictly farther, so the band's first
        # argmin is the full one.
        self.dest_edge = None
        lat, lon = ctx.street_mid_lat, ctx.street_mid_lon
        if lat.size:
            east = (lon - destination.lon) * math.cos(math.radians(destination.lat))
            guess = int(np.argmin((lat - destination.lat) ** 2 + east ** 2))
            radius = great_circle_m_many(lat[guess:guess + 1], lon[guess:guess + 1], destination)[0]
            band = latitude_band(lat, destination, radius)
            self.dest_edge = int(band[np.argmin(great_circle_m_many(lat[band], lon[band], destination))])

    def decide(self, view: PlanningView, node: int, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        edges = ctx.out_edges[node]
        if not edges:  # before dest_edge is read: on a graph without streets it is None
            raise NoPathError(f"dead end at {ctx.node_ids[node]!r}")
        start = ctx.edge_from[self.dest_edge]
        if not self._searching and node == start:
            self._searching = True
        if not self._searching:
            return RouteDecision(TakeRoad(ctx.first_hop(node, start)))
        # The driver cruises one random street at a time and takes the first
        # free spot on the street it chose, not spots seen on cross streets.
        # A street into a dead end is taken only when every street leads into one.
        edges = [e for e in edges if ctx.out_edges[ctx.edge_to[e]]] or edges
        street = edges[int(rng.integers(len(edges)))]
        for ridx in ctx.street_spots[street].tolist():
            if view.avail[ridx]:
                return ctx.toward(view.now, node, ridx)
        return RouteDecision(TakeRoad(street))


class HeuristicPolicy:
    """Stand-in for an uninformed human driver.

    Beyond ``settings.heuristic_far_radius_m`` of the destination the driver just heads there.
    Inside the radius it accepts any currently available adjacent spot whose
    walk stays under a threshold that relaxes linearly with search time, and
    otherwise keeps driving toward, then circling around, the destination.
    """

    def __init__(self, ctx: PlannerContext, destination: GeoPoint, settings: PlannerSettings | None = None):
        self.destination = destination
        self.settings = settings or PlannerSettings()
        self.dest_node = ctx.dest_node(destination)
        self._search_started: float | None = None
        # per node: outside the search radius, as every node outside the radius's latitude band is
        self._far = np.ones(len(ctx.node_ids), dtype=bool)
        radius = self.settings.heuristic_far_radius_m
        band = latitude_band(ctx.node_lat, destination, radius)
        self._far[band] = great_circle_m_many(ctx.node_lat[band], ctx.node_lon[band], destination) > radius
        self._circling_pool: list[int] | None = None  # streets to circle on from dest_node

    def accept_threshold(self, search_time_s: float) -> float:
        return self.settings.heuristic_accept_walk_s + self.settings.heuristic_relax_s_per_min * (search_time_s / 60.0)

    def decide(self, view: PlanningView, node: int, rng: np.random.Generator) -> RouteDecision:
        ctx = view.ctx
        if self._far[node] and node != self.dest_node:
            return RouteDecision(TakeRoad(ctx.first_hop(node, self.dest_node)))
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
            return RouteDecision(TakeRoad(ctx.first_hop(node, self.dest_node)))
        if self._circling_pool is None:
            self._circling_pool = self._circling_streets(ctx)
        pool = self._circling_pool
        return RouteDecision(TakeRoad(pool[int(rng.integers(len(pool)))]))

    def _circling_streets(self, ctx: PlannerContext) -> list[int]:
        """Streets out of dest_node ending inside the search radius, else the one ending closest."""
        edges = ctx.out_edges[self.dest_node]
        if not edges:
            raise NoPathError(f"dead end at {ctx.node_ids[self.dest_node]!r}")
        ends = [ctx.edge_to[s] for s in edges]
        dist = great_circle_m_many(ctx.node_lat[ends], ctx.node_lon[ends], self.destination)
        inside = [e for e, d in zip(edges, dist) if d <= self.settings.heuristic_far_radius_m]
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
