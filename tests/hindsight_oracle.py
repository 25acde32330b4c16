"""Single sampled futures of a hindsight decision, drawn and solved one at a time.

``HindsightPolicy`` thresholds a trip's common random numbers against every
out-edge's plan at once; these helpers sample and solve one determinized
future from one node, so tests can check the solve against enumeration and the
hindsight value against the optimum.
"""

from dataclasses import dataclass

import numpy as np

from parksearch.errors import NoPathError
from parksearch.geo import GeoPoint
from parksearch.planners import HindsightPlan, PlanningView, _future_probabilities


@dataclass(frozen=True)
class Determinization:
    """One sampled future: availability of every in-scope resource at the agent's arrival time."""

    available: np.ndarray  # bool, aligned with PlannerContext.res_ids


def sample_determinizations(
    view: PlanningView, from_node: int, n: int, rng: np.random.Generator
) -> list[Determinization]:
    """Draw ``n`` futures of all resource states at the agent's arrival times."""
    if n < 1:
        raise ValueError("need at least one determinization")
    _, probs = _future_probabilities(view, view.ctx.drive_to_resources(from_node))
    available = rng.random((n, view.ctx.n_resources)) < probs
    return [Determinization(available=row.copy()) for row in available]


def solve_determinization(
    view: PlanningView, from_node: int, det: Determinization, destination: GeoPoint
) -> tuple[str, float]:
    """Cheapest resource in one determinized future; ties go to the smallest id."""
    ctx = view.ctx
    base = ctx.drive_to_resources([from_node]) + ctx.walk_vector(destination)
    # The future whose uniforms are all 0: 0 < p holds exactly where det.available is set.
    zeros = np.zeros((1, ctx.n_resources))
    mins, picks = HindsightPlan(view.t_claim, base).solve(zeros, zeros.T, det.available)
    cost = float(mins[0, 0])
    if not np.isfinite(cost):
        raise NoPathError(f"no resource reachable from {ctx.node_ids[from_node]!r}")
    return ctx.res_ids[int(picks[0, 0])], cost
