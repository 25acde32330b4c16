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
from typing import TYPE_CHECKING

import numpy as np

from .availability import AdaptionOverlay
from .errors import DegenerateTargetError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .geo import GeoPoint
    from .planners import PlannerSettings, PlanningView, RouteDecision


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


def _edge_jump_weight(
    view: "PlanningView",
    street: int,
    t_acc: float,
    visited: set[int],
    dest_node: int,
    isochrone_s: float,
    visit_decay: float,
) -> float:
    """Biased jump weight of a street: visit decay times distance penalty times the chance of a free spot."""
    ctx = view.ctx
    spots = ctx.street_spots[street]
    if not len(spots):
        return 0.0  # a street without spots offers no chance to park
    occupied_product = 1.0
    for p in view.availability(t_acc, spots).tolist():  # sequentially, in street_spots order
        occupied_product *= 1.0 - p
    theta = visit_decay if street in visited else 1.0
    delta = min(1.0, ctx.drive_time(ctx.edge_to[street], dest_node) / isochrone_s)
    return theta * delta * (1.0 - occupied_product)


def adapt_probabilities(
    view: "PlanningView",
    target: int,
    t_arrival: float,
    agent: int,
    settings: "PlannerSettings",
    rng: np.random.Generator,
    dest_node: int | None = None,
) -> None:
    """Simulate fallback search behavior and subtract its visit mass from predictions.

    Runs ``settings.adaption_samples`` self-interacting biased random walks
    starting at the end of the street of spot index ``target``. Each walk
    carries the probability of still searching; per step, candidate edges
    inside the isochrone around the target get a jump weight, a single uniform
    draw either picks an edge (proportionally to the weights) or, when it
    exceeds the total weight, ends the walk. Each final street's spots then get
    the mean mass of the walks ending there, split evenly, from their mean end time.
    """
    isochrone_s, visit_decay = settings.adaption_isochrone_s, settings.adaption_visit_decay
    ctx = view.ctx
    target_street = int(ctx.res_edge[target])
    start_node = ctx.edge_to[target_street]  # the walks start at the street's end
    if not ctx.out_edges[start_node]:
        raise DegenerateTargetError(f"target street {ctx.edge_ids[target_street]!r} ends in a dead end "
                                    f"at {ctx.node_ids[start_node]!r}")
    iso_nodes = ctx.isochrone(ctx.edge_from[target_street], isochrone_s)
    dest_node = dest_node if dest_node is not None else ctx.edge_from[target_street]

    p_initial = 1.0 - float(view.availability(t_arrival, [target])[0])
    t_start = t_arrival + (ctx.edge_time[target_street] - ctx.resources[target].offset_s)  # at the street's end
    # Nothing a weight reads changes during the walks (the overlay is written
    # after them), so candidates and weights repeat exactly within this call:
    # weights are keyed by node, time and which candidates were visited, and kept
    # with their running total, whose last element is the total weight.
    cands_of: dict[int, list[int]] = {}
    weights_of: dict[tuple, tuple[list[float], list[float]]] = {}

    def options(node: int, t_acc: float, visited: set[int]):
        """The candidate streets out of ``node``, their weights and running total; None where a walk
        stops without a draw (no candidates, or no weight)."""
        cands = cands_of.get(node)
        if cands is None:
            cands = cands_of[node] = [s for s in ctx.out_edges[node] if ctx.edge_to[s] in iso_nodes]
        if not cands:
            return None
        key = (node, t_acc, frozenset(s for s in cands if s in visited))
        memo = weights_of.get(key)
        if memo is None:
            weights = [
                _edge_jump_weight(view, s, t_acc, visited, dest_node, isochrone_s, visit_decay)
                for s in cands
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
    # in the same state, so they share the first step's options. A finished walk
    # adds itself, its time and its mass to its final street's sums, in walk
    # order from 0.0, so the means do not depend on how ``sum`` rounds.
    sums: dict[int, tuple[int, float, float]] = {}
    first = options(start_node, t_start, set()) if settings.adaption_max_steps else None
    for _ in range(settings.adaption_samples):
        moved = None if first is None else pick(first)
        if moved is None:
            street, p_path, t_acc = target_street, p_initial, t_arrival
        else:
            street, weight = moved
            p_path, t_acc = p_initial * weight, t_start + ctx.edge_time[street]
            visited = {street}
            for _ in range(settings.adaption_max_steps - 1):
                step = options(ctx.edge_to[street], t_acc, visited)
                moved = None if step is None else pick(step)
                if moved is None:
                    break
                street, weight = moved
                p_path *= weight
                t_acc += ctx.edge_time[street]
                visited.add(street)
        n, t_sum, p_sum = sums.get(street, (0, 0.0, 0.0))
        sums[street] = (n + 1, t_sum + t_acc, p_sum + p_path)

    # each final street's mean mass, split evenly over its spots; a street without spots gets no entries
    spot, activation, delta = [], [], []
    for street, (n, t_sum, p_sum) in sorted(sums.items()):
        on = ctx.street_spots[street].tolist()
        spot += on
        activation += [t_sum / n] * len(on)
        delta += [p_sum / n / max(len(on), 1)] * len(on)
    view.overlay.add(spot, activation, delta, agent)


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
