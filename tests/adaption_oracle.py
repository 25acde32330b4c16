"""The adaption walks one at a time, each step looked up anew: the reference for ``adapt_probabilities``.

``fleet.adapt_probabilities`` shares the first step among the walks of one
call and folds each walk into its final street's running sums as it ends;
this runs one walk after another, each with its own set, list, memo lookups
and ``WalkPath``, and regroups the finished walks with ``np.bincount``, so
tests can require the same overlay entries and the same random stream from
both.
"""

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from parksearch.availability import AdaptionOverlay
from parksearch.errors import DegenerateTargetError
from parksearch.fleet import _edge_jump_weight
from parksearch.planners import PlannerContext


@dataclass(frozen=True)
class WalkPath:
    """One finished random walk: the streets taken and the surviving probability mass."""

    edges: tuple[str, ...]
    path_probability: float
    accumulated_time: float
    final_edge: str


def create_adaptions(paths, agent: int, ctx: PlannerContext, overlay: AdaptionOverlay) -> None:
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


def oracle_adapt_probabilities(view, target, t_arrival, agent, settings, rng, dest_node=None):
    """``adapt_probabilities`` walk by walk; returns the finished walks as well."""
    isochrone_s, visit_decay = settings.adaption_isochrone_s, settings.adaption_visit_decay
    ctx = view.ctx
    target_res = ctx.resources[target]
    target_edge = ctx.graph.edges[target_res.edge_id]
    start_node = target_edge.to_node
    if not ctx.out_edges[start_node]:
        raise DegenerateTargetError(f"target street {target_edge.id!r} ends in a dead end at {start_node!r}")
    iso_nodes = ctx.isochrone(target_edge.from_node, isochrone_s)
    dest_node = dest_node if dest_node is not None else target_edge.from_node

    p_initial = 1.0 - float(view.availability(t_arrival, [target])[0])
    t_partial = target_edge.drive_time_s - target_res.offset_s
    cands_of, weights_of, paths = {}, {}, []
    for _ in range(settings.adaption_samples):
        p_path = p_initial
        t_acc = t_arrival + t_partial
        node = start_node
        visited, taken = set(), []
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
                weights = [_edge_jump_weight(view, e.id, t_acc, visited, dest_node, isochrone_s, visit_decay)
                           for e in cands]
                memo = weights_of[key] = (weights, list(itertools.accumulate(weights)))
            weights, cum = memo
            total = cum[-1]
            if total <= 0.0:
                break
            draw = float(rng.random()) * max(total, 1.0)
            if draw > total:
                break
            k = bisect.bisect_left(cum, draw)
            edge = cands[k]
            p_path *= weights[k]
            t_acc += edge.drive_time_s
            visited.add(edge.id)
            taken.append(edge.id)
            final_edge = edge.id
            node = edge.to_node
        paths.append(WalkPath(tuple(taken), p_path, t_acc if taken else t_arrival, final_edge))
    create_adaptions(paths, agent, ctx, view.overlay)
    return paths
