"""Shared fleet state: reservations and dynamic probability adaptions.

A reservation announces which resource an agent is heading for and when it
expects to arrive; other fleet agents treat that resource as occupied when
they would get there later. Probability adaptions go further: biased random
walks simulate where an agent would fall back to if its preferred spot is
taken, and the resulting visit mass is subtracted from the predicted
availability of surrounding resources. ``Fleet`` decides when an agent's
shared data is published and when it is withdrawn.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .availability import AdaptionOverlay
from .errors import DegenerateTargetError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .geo import GeoPoint
    from .planners import PlannerContext, PlannerSettings, PlanningView, RouteDecision


class ReservationTable:
    """Active reservations, at most one per agent: per agent index, the reserved spot index (-1 for
    none) and the expected arrival there."""

    def __init__(self, n_agents: int) -> None:
        self.spot = np.full(n_agents, -1, dtype=np.intp)
        self.arrival = np.zeros(n_agents)

    def place(self, agent: int, spot: int, t_arrival: float) -> None:
        """Replace the agent's previous reservation with a new one."""
        self.spot[agent] = spot
        self.arrival[agent] = t_arrival

    def cancel(self, agent: int) -> None:
        self.spot[agent] = -1

    def _first(self, holders, t, agent: int | None):
        """Which of the agents ``holders`` (an array or one index) reach their spot before ``agent`` at ``t``.

        A strictly earlier reservation does. At an equal arrival the smaller
        agent index keeps the claim, as the simulator resolves simultaneous
        claims; an anonymous query (``agent`` None) loses every tie, and no
        agent blocks itself.
        """
        query = len(self.spot) if agent is None else agent  # after every holder
        t_res = self.arrival[holders]
        return (holders != query) & ((t_res < t) | ((t_res == t) & (holders < query)))

    def blocked(self, agent: int | None, arrivals: np.ndarray) -> np.ndarray:
        """Mask over ``arrivals``, one per spot, of the spots another agent reaches first."""
        holders = (self.spot >= 0).nonzero()[0]
        spots = self.spot[holders]
        mask = np.zeros(len(arrivals), dtype=bool)
        mask[spots[self._first(holders, arrivals[spots], agent)]] = True
        return mask

    def spot_blocked(self, agent: int | None, spot: int, t_arrival: float) -> bool:
        """Whether another agent reaches ``spot`` before ``agent`` at ``t_arrival``; holder by holder, as a
        spot has few (usually just the asking agent)."""
        return any(self._first(h, t_arrival, agent) for h in (self.spot == spot).nonzero()[0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.spot >= 0))


@dataclass(frozen=True)
class WalkPath:
    """One finished random walk: the streets taken and the surviving probability mass."""

    edges: tuple[str, ...]
    path_probability: float
    accumulated_time: float
    final_edge: str


def _edge_jump_weight(
    view: "PlanningView",
    edge_id: str,
    t_acc: float,
    visited: set[str],
    dest_node: str,
    isochrone_s: float,
    visit_decay: float,
) -> float:
    """Biased jump weight: visit decay times distance penalty times the chance of a free spot."""
    ctx = view.ctx
    spots = ctx.street_spots(edge_id)
    if not len(spots):
        return 0.0  # a street without spots offers no chance to park
    occupied_product = 1.0
    for p in view.availability(t_acc, spots).tolist():  # sequentially, in resources_by_edge order
        occupied_product *= 1.0 - p
    edge = ctx.graph.edges[edge_id]
    theta = visit_decay if edge_id in visited else 1.0
    delta = min(1.0, ctx.drive_time(edge.to_node, dest_node) / isochrone_s)
    return theta * delta * (1.0 - occupied_product)


def adapt_probabilities(
    view: "PlanningView",
    target: int,
    t_arrival: float,
    agent: int,
    settings: "PlannerSettings",
    rng: np.random.Generator,
    dest_node: str | None = None,
) -> None:
    """Simulate fallback search behavior and subtract its visit mass from predictions.

    Runs ``settings.adaption_samples`` self-interacting biased random walks
    starting at the end of the street of spot index ``target``. Each walk
    carries the probability of still searching; per step, candidate edges
    inside the isochrone around the target get a jump weight, a single uniform
    draw either picks an edge (proportionally to the weights) or, when it
    exceeds the total weight, ends the walk. Finished walks are turned into overlay
    deltas grouped by their final street.
    """
    isochrone_s, visit_decay = settings.adaption_isochrone_s, settings.adaption_visit_decay
    ctx = view.ctx
    target_res = ctx.resources[target]
    target_edge = ctx.graph.edges[target_res.edge_id]
    start_node = target_edge.to_node
    if not ctx.out_edges[start_node]:
        raise DegenerateTargetError(
            f"target street {target_edge.id!r} ends in a dead end at {start_node!r}"
        )
    iso_nodes = ctx.isochrone(target_edge.from_node, isochrone_s)
    dest_node = dest_node if dest_node is not None else target_edge.from_node

    p_initial = 1.0 - float(view.availability(t_arrival, [target])[0])
    t_start = t_arrival + (target_edge.drive_time_s - target_res.offset_s)  # at the street's end
    # Nothing a weight reads changes during the walks (the overlay is written
    # after them), so candidates and weights repeat exactly within this call:
    # weights are keyed by node, time and which candidates were visited, and kept
    # with their running total, whose last element is the total weight.
    cands_of: dict[str, list] = {}
    weights_of: dict[tuple, tuple[list[float], list[float]]] = {}

    def options(node: str, t_acc: float, visited: set[str]):
        """The candidate streets out of ``node``, their weights and running total; None where a walk
        stops without a draw (no candidates, or no weight)."""
        cands = cands_of.get(node)
        if cands is None:
            cands = cands_of[node] = [e for e in ctx.out_edges[node] if e.to_node in iso_nodes]
        if not cands:
            return None
        key = (node, t_acc, frozenset(e.id for e in cands if e.id in visited))
        memo = weights_of.get(key)
        if memo is None:
            weights = [
                _edge_jump_weight(view, e.id, t_acc, visited, dest_node, isochrone_s, visit_decay)
                for e in cands
            ]
            memo = weights_of[key] = (weights, list(itertools.accumulate(weights)))
        return None if memo[1][-1] <= 0.0 else (cands, *memo)

    def pick(step):
        """One draw: the street taken and its weight, or None when the draw exceeds the total weight."""
        cands, weights, cum = step
        total = cum[-1]
        draw = float(rng.random()) * max(total, 1.0)
        if draw > total:
            return None
        k = bisect.bisect_left(cum, draw)  # the first edge whose running total reaches the draw
        return cands[k], weights[k]

    # A walk that never leaves the target's street describes staying at the
    # target itself, so it anchors at the arrival time there. Every walk starts
    # in the same state, so they share the first step's options, and each walk
    # that stops at its first draw records the one shared stay.
    stay = WalkPath((), p_initial, t_arrival, target_edge.id)
    first = options(start_node, t_start, set()) if settings.adaption_max_steps else None
    paths: list[WalkPath] = []
    for _ in range(settings.adaption_samples):
        moved = None if first is None else pick(first)
        if moved is None:
            paths.append(stay)
            continue
        edge, weight = moved
        p_path, t_acc = p_initial * weight, t_start + edge.drive_time_s
        visited, taken = {edge.id}, [edge.id]
        for _ in range(settings.adaption_max_steps - 1):
            step = options(edge.to_node, t_acc, visited)
            moved = None if step is None else pick(step)
            if moved is None:
                break
            edge, weight = moved
            p_path *= weight
            t_acc += edge.drive_time_s
            visited.add(edge.id)
            taken.append(edge.id)
        paths.append(WalkPath(tuple(taken), p_path, t_acc, edge.id))
    create_adaptions(paths, agent, ctx, view.overlay)


def create_adaptions(paths, agent: int, ctx: "PlannerContext", overlay: AdaptionOverlay) -> None:
    """Distribute grouped path probabilities over the spots of each final street, streets in id order.

    Each street's means sum its paths in their order from 0.0 (``np.bincount``), so they do not
    depend on how the interpreter's ``sum`` rounds."""
    streets = sorted({p.final_edge for p in paths})
    index = {e: i for i, e in enumerate(streets)}
    group = [index[p.final_edge] for p in paths]
    size = np.bincount(group)
    mean_arrival = np.bincount(group, weights=[p.accumulated_time for p in paths]) / size
    mean_prob = np.bincount(group, weights=[p.path_probability for p in paths]) / size
    spots = [ctx.street_spots(e) for e in streets]
    count = np.array([len(s) for s in spots])
    delta = mean_prob / np.maximum(count, 1)  # a street without spots gets no entries
    overlay.add(np.concatenate(spots), np.repeat(mean_arrival, count), np.repeat(delta, count), agent)


class Fleet:
    """One run's shared fleet data: published after each decision, withdrawn when the agent leaves.

    Agents are the run's agent indices and spots ``PlannerContext`` resource
    indices. A view's ``reservations`` and ``overlay`` say what its agent
    shares. A reservation names the decision's target; adaption walks are
    re-run, and the agent's old ones withdrawn, only when the target changes.
    """

    def __init__(self, settings: "PlannerSettings", n_agents: int) -> None:
        self.settings = settings
        self.reservations = ReservationTable(n_agents)
        self.overlay = AdaptionOverlay()
        self._adapted: dict[int, int | None] = {}  # the target each overlay agent's entries describe

    def publish(self, view: "PlanningView", decision: "RouteDecision", rng: np.random.Generator,
                destination: "GeoPoint") -> None:
        agent, target = view.agent_id, decision.target_resource
        if view.reservations is not None and target is not None:
            self.reservations.place(agent, target, decision.expected_arrival)
        if view.overlay is not None and target != self._adapted.get(agent):
            self.overlay.withdraw(agent)
            self._adapted[agent] = target
            if target is not None:
                adapt_probabilities(view, target, decision.expected_arrival, agent, self.settings, rng,
                                    view.ctx.dest_node(destination))

    def withdraw(self, agent: int) -> None:
        """Drop all the agent shared, once it has parked or timed out; idempotent."""
        self.reservations.cancel(agent)
        self.overlay.withdraw(agent)
        self._adapted.pop(agent, None)
