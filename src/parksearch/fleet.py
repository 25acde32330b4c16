"""Shared fleet state: reservations and dynamic probability adaptions.

A reservation announces which resource an agent is heading for and when it
expects to arrive; other fleet agents treat that resource as occupied when
they would get there later. Probability adaptions go further: biased random
walks simulate where an agent would fall back to if its preferred spot is
taken, and the resulting visit mass is subtracted from the predicted
availability of surrounding resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .availability import AdaptionOverlay, OverlayDelta
from .errors import AdaptionError, DegenerateTargetError
from .graph import isochrone_nodes

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .planners import PlanningView


@dataclass(frozen=True)
class Reservation:
    resource: str
    agent: str
    t_arrival: float


class ReservationTable:
    """Active reservations, at most one per agent."""

    def __init__(self) -> None:
        self._by_agent: dict[str, Reservation] = {}

    def place(self, agent: str, resource: str, t_arrival: float) -> Reservation:
        """Replace the agent's previous reservation with a new one."""
        self.cancel(agent)
        res = self._by_agent[agent] = Reservation(resource, agent, t_arrival)
        return res

    def cancel(self, agent: str) -> None:
        self._by_agent.pop(agent, None)

    def for_agent(self, agent: str) -> Reservation | None:
        return self._by_agent.get(agent)

    def for_resource(self, resource: str) -> tuple[Reservation, ...]:
        return tuple(res for res in self._by_agent.values() if res.resource == resource)

    def blocked(self, agent: str | None, arrivals: np.ndarray | list[float], index: dict[str, int]) -> np.ndarray:
        """Mask over ``arrivals`` (``index`` maps resource ids into it) of the spots another agent reaches first.

        A strictly earlier reservation blocks. At an equal arrival the smaller
        agent id keeps the claim, as the simulator resolves simultaneous claims;
        an anonymous query (``agent`` None) loses every tie. An agent's own
        reservation never blocks it, and resources outside ``index`` are ignored.
        """
        mask = np.zeros(len(arrivals), dtype=bool)
        for res in self._by_agent.values():
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


@dataclass
class AdaptionRecord:
    """All overlay entries one agent created for one target; reversible as a unit."""

    owner: str
    entries: list[OverlayDelta] = field(default_factory=list)
    reversed: bool = False


def _edge_jump_weight(
    view: "PlanningView",
    edge_id: str,
    t_acc: float,
    visited: set[str],
    dest_node_idx: int,
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
    delta = min(1.0, ctx.M[ctx.node_index[edge.to_node], dest_node_idx] / isochrone_s)
    return theta * delta * (1.0 - occupied_product)


def adapt_probabilities(
    view: "PlanningView",
    target_resource: str,
    t_arrival: float,
    agent: str,
    *,
    samples: int = 30,
    isochrone_s: float = 300.0,
    visit_decay: float = 0.95,
    rng: np.random.Generator,
    dest_node: str | None = None,
    max_steps: int = 1000,
) -> AdaptionRecord:
    """Simulate fallback search behavior and subtract its visit mass from predictions.

    Runs ``samples`` self-interacting biased random walks starting at the end
    of the target's street. Each walk carries the probability of still
    searching; per step, candidate edges inside the isochrone around the
    target get a jump weight, a single uniform draw either picks an edge
    (proportionally to the weights) or, when it exceeds the total weight,
    ends the walk. Finished walks are turned into overlay deltas grouped by
    their final street.
    """
    if samples < 1:
        raise ValueError("need at least one walk")
    if isochrone_s <= 0:
        raise ValueError("isochrone limit must be positive")
    ctx = view.ctx
    target = ctx.graph.resources[target_resource]
    target_edge = ctx.graph.edges[target.edge_id]
    t_idx = ctx.res_index[target_resource]
    start_node = target_edge.to_node
    if not ctx.out_edges[start_node]:
        raise DegenerateTargetError(
            f"target street {target_edge.id!r} ends in a dead end at {start_node!r}"
        )
    iso_nodes = isochrone_nodes(ctx.graph, ctx.matrix, target_edge.from_node, isochrone_s)
    dest_idx = ctx.node_index[dest_node if dest_node is not None else target_edge.from_node]

    p_initial = 1.0 - float(view.availability(t_arrival, [t_idx])[0])
    t_partial = target_edge.drive_time_s - target.offset_s
    paths: list[WalkPath] = []
    for _ in range(samples):
        p_path = p_initial
        t_acc = t_arrival + t_partial
        node = start_node
        visited: set[str] = set()
        taken: list[str] = []
        final_edge = target_edge.id
        for _ in range(max_steps):
            cands = [e for e in ctx.out_edges[node] if e.to_node in iso_nodes]
            if not cands:
                break
            weights = [
                _edge_jump_weight(view, e.id, t_acc, visited, dest_idx, isochrone_s, visit_decay)
                for e in cands
            ]
            total = float(sum(weights))
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


def create_adaptions(paths, agent: str, graph, overlay: AdaptionOverlay) -> AdaptionRecord:
    """Distribute grouped path probabilities over the resources of each final street."""
    record = AdaptionRecord(owner=agent)
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
            record.entries.append(overlay.add(rid, mean_arrival, delta, agent))
    return record


def reverse_adaptions(record: AdaptionRecord, overlay: AdaptionOverlay) -> AdaptionOverlay:
    """Remove exactly the record's entries, restoring prior predictions bit for bit."""
    if record.reversed:
        raise AdaptionError(f"adaption record of {record.owner!r} already reversed")
    try:
        for entry in record.entries:
            overlay.remove(entry)
    except KeyError as exc:
        raise AdaptionError(f"adaption record of {record.owner!r} is not applied") from exc
    record.reversed = True
    return overlay
