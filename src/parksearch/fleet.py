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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .availability import AdaptionOverlay, OverlayDelta
from .errors import DegenerateTargetError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .geo import GeoPoint
    from .planners import PlannerSettings, PlanningView, RouteDecision


@dataclass(frozen=True)
class Reservation:
    resource: str
    agent: str
    t_arrival: float


class ReservationTable:
    """Active reservations, at most one per agent, indexed by agent and by resource."""

    def __init__(self) -> None:
        self._by_agent: dict[str, Reservation] = {}
        # resource -> its holders' reservations by agent, in the order they were placed; no empty entries
        self._by_resource: dict[str, dict[str, Reservation]] = {}

    def place(self, agent: str, resource: str, t_arrival: float) -> Reservation:
        """Replace the agent's previous reservation with a new one."""
        self.cancel(agent)
        res = self._by_agent[agent] = Reservation(resource, agent, t_arrival)
        self._by_resource.setdefault(resource, {})[agent] = res
        return res

    def cancel(self, agent: str) -> None:
        res = self._by_agent.pop(agent, None)
        if res is not None:
            holders = self._by_resource[res.resource]
            del holders[agent]
            if not holders:
                del self._by_resource[res.resource]

    def for_agent(self, agent: str) -> Reservation | None:
        return self._by_agent.get(agent)

    def for_resource(self, resource: str) -> tuple[Reservation, ...]:
        return tuple(self._by_resource.get(resource, {}).values())

    def blocked(self, agent: str | None, arrivals: np.ndarray | list[float], index: dict[str, int]) -> np.ndarray:
        """Mask over ``arrivals`` (``index`` maps resource ids into it) of the spots another agent reaches first.

        A strictly earlier reservation blocks. At an equal arrival the smaller
        agent id keeps the claim, as the simulator resolves simultaneous claims;
        an anonymous query (``agent`` None) loses every tie. An agent's own
        reservation never blocks it, and resources outside ``index`` are ignored.
        A query naming fewer spots than are reserved walks only those spots'
        holders; any other walks every reservation. Both give the same mask.
        """
        mask = np.zeros(len(arrivals), dtype=bool)
        if len(index) < len(self._by_resource):
            reservations = [res for rid in index if rid in self._by_resource
                            for res in self._by_resource[rid].values()]
        else:
            reservations = self._by_agent.values()
        for res in reservations:
            i = index.get(res.resource)
            if i is None or res.agent == agent:
                continue
            t = arrivals[i]
            if res.t_arrival < t or (res.t_arrival == t and (agent is None or res.agent < agent)):
                mask[i] = True
        return mask

    def __len__(self) -> int:
        return len(self._by_agent)


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
    target_resource: str,
    t_arrival: float,
    agent: str,
    settings: "PlannerSettings",
    rng: np.random.Generator,
    dest_node: str | None = None,
) -> list[OverlayDelta]:
    """Simulate fallback search behavior and subtract its visit mass from predictions.

    Runs ``settings.adaption_samples`` self-interacting biased random walks
    starting at the end of the target's street. Each walk carries the
    probability of still searching; per step, candidate edges inside the
    isochrone around the target get a jump weight, a single uniform draw
    either picks an edge (proportionally to the weights) or, when it exceeds
    the total weight, ends the walk. Finished walks are turned into overlay
    deltas grouped by their final street; the added entries are returned.
    """
    isochrone_s, visit_decay = settings.adaption_isochrone_s, settings.adaption_visit_decay
    ctx = view.ctx
    target = ctx.graph.resources[target_resource]
    target_edge = ctx.graph.edges[target.edge_id]
    t_idx = ctx.res_index[target_resource]
    start_node = target_edge.to_node
    if not ctx.out_edges[start_node]:
        raise DegenerateTargetError(
            f"target street {target_edge.id!r} ends in a dead end at {start_node!r}"
        )
    iso_nodes = ctx.isochrone(target_edge.from_node, isochrone_s)
    dest_node = dest_node if dest_node is not None else target_edge.from_node

    p_initial = 1.0 - float(view.availability(t_arrival, [t_idx])[0])
    t_partial = target_edge.drive_time_s - target.offset_s
    # Nothing a weight reads changes during the walks (the overlay is written
    # after them), so candidates and weights repeat exactly within this call:
    # weights are keyed by node, time and which candidates were visited.
    cands_of: dict[str, list] = {}
    weights_of: dict[tuple, tuple[list[float], float]] = {}
    paths: list[WalkPath] = []
    for _ in range(settings.adaption_samples):
        p_path = p_initial
        t_acc = t_arrival + t_partial
        node = start_node
        visited: set[str] = set()
        taken: list[str] = []
        final_edge = target_edge.id
        for _ in range(settings.adaption_max_steps):
            cands = cands_of.get(node)
            if cands is None:
                cands = cands_of[node] = [e for e in ctx.out_edges[node] if e.to_node in iso_nodes]
            if not cands:
                break
            key = (node, t_acc, frozenset(e.id for e in cands if e.id in visited))
            memo = weights_of.get(key)
            if memo is None:
                weights = [
                    _edge_jump_weight(view, e.id, t_acc, visited, dest_node, isochrone_s, visit_decay)
                    for e in cands
                ]
                memo = weights_of[key] = (weights, float(sum(weights)))
            weights, total = memo
            if total <= 0.0:
                break
            draw = float(rng.random()) * max(total, 1.0)
            if draw > total:
                break
            cum = 0.0
            chosen = None
            for e, w in zip(cands, weights):
                cum += w
                if draw <= cum:
                    chosen = (e, w)
                    break
            if chosen is None:  # guard against float roundoff at the boundary
                chosen = (cands[-1], weights[-1])
            edge, weight = chosen
            p_path *= weight
            t_acc += edge.drive_time_s
            visited.add(edge.id)
            taken.append(edge.id)
            final_edge = edge.id
            node = edge.to_node
        # A walk that never left the target's street describes staying at the
        # target itself, so it anchors at the arrival time there.
        paths.append(WalkPath(tuple(taken), p_path, t_acc if taken else t_arrival, final_edge))
    return create_adaptions(paths, agent, ctx.graph, view.overlay)


def create_adaptions(paths, agent: str, graph, overlay: AdaptionOverlay) -> list[OverlayDelta]:
    """Distribute grouped path probabilities over the resources of each final street."""
    entries = []
    groups: dict[str, list[WalkPath]] = {}
    for p in paths:
        groups.setdefault(p.final_edge, []).append(p)
    for edge_id in sorted(groups):
        members = groups[edge_id]
        resource_ids = graph.resources_by_edge.get(edge_id, ())
        if not resource_ids:
            continue
        mean_arrival = sum(p.accumulated_time for p in members) / len(members)
        mean_prob = sum(p.path_probability for p in members) / len(members)
        delta = mean_prob / len(resource_ids)
        for rid in resource_ids:
            entries.append(overlay.add(rid, mean_arrival, delta, agent))
    return entries


class Fleet:
    """One run's shared fleet data: published after each decision, withdrawn when the agent leaves.

    A view's ``reservations`` and ``overlay`` say what its agent shares. A
    reservation names the decision's target; adaption walks are re-run, and
    the agent's old ones withdrawn, only when the target changes.
    """

    def __init__(self, settings: "PlannerSettings") -> None:
        self.settings = settings
        self.reservations = ReservationTable()
        self.overlay = AdaptionOverlay()
        self._adapted: dict[str, str | None] = {}  # the target each overlay agent's entries describe

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

    def withdraw(self, agent: str) -> None:
        """Drop all the agent shared, once it has parked or timed out; idempotent."""
        self.reservations.cancel(agent)
        self.overlay.withdraw(agent)
        self._adapted.pop(agent, None)
