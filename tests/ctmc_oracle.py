"""Scalar reference for the two-state availability process.

One resource at a time, written with ``math`` rather than numpy, so it stays
an independent oracle for the vectorized predictions in
``parksearch.availability`` and ``parksearch.planners.PlanningView``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from parksearch.availability import AdaptionOverlay, CtmcParams, stationary_availability


class ResourceState(enum.Enum):
    AVAILABLE = "available"
    OCCUPIED = "occupied"


@dataclass(frozen=True)
class ResourceBelief:
    """Latest observation anchor for one resource."""

    resource_id: int | str  # the spot index an AdaptionOverlay files the resource's entries under
    state: ResourceState
    anchor_time: float
    params: CtmcParams


def transition_probability(params: CtmcParams, frm: ResourceState, to: ResourceState, dt: float) -> float:
    """Probability of being in ``to`` after ``dt`` seconds, starting in ``frm``."""
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    pi_a = stationary_availability(params)
    decay = math.exp(-(params.lam + params.mu) * dt)
    if frm is ResourceState.AVAILABLE:
        p_avail = pi_a + (1.0 - pi_a) * decay
    else:
        p_avail = pi_a * (1.0 - decay)
    return p_avail if to is ResourceState.AVAILABLE else 1.0 - p_avail


def pending_subtraction(overlay: AdaptionOverlay, spot: int, at: float, exclude_owner: int | None = None) -> float:
    """One spot's overlay subtraction at ``at``, entry by entry: the sum, in insertion order from 0.0,
    of its deltas whose activation has passed, leaving out those of ``exclude_owner``."""
    total = 0.0
    for s, t, d, o in zip(overlay.spot.tolist(), overlay.activation.tolist(), overlay.delta.tolist(),
                          overlay.owner.tolist()):
        if s == spot and t <= at and o != exclude_owner:
            total += d
    return total


def availability_probability(
    belief: ResourceBelief,
    at: float,
    overlay: AdaptionOverlay | None = None,
    exclude_owner: int | None = None,
) -> float:
    """Predicted availability at time ``at``, minus any active overlay deltas, clamped to [0, 1]."""
    if at < belief.anchor_time:
        raise ValueError(f"query time {at} precedes anchor {belief.anchor_time}")
    p = transition_probability(belief.params, belief.state, ResourceState.AVAILABLE, at - belief.anchor_time)
    if overlay is not None:
        p -= pending_subtraction(overlay, belief.resource_id, at, exclude_owner)
    return min(1.0, max(0.0, p))


def expected_wait_time(params: CtmcParams, t_tr: float) -> float:
    """Expected time circling an occupied resource: ``t_tr`` over the chance of success per round trip."""
    if t_tr <= 0:
        raise ValueError(f"round trip time must be positive, got {t_tr}")
    p = transition_probability(params, ResourceState.OCCUPIED, ResourceState.AVAILABLE, t_tr)
    return t_tr / p


def sample_future_state(belief: ResourceBelief, at: float, rng: np.random.Generator) -> ResourceState:
    """Draw the resource state at time ``at`` from the anchored prediction."""
    p = availability_probability(belief, at)
    return ResourceState.AVAILABLE if rng.random() < p else ResourceState.OCCUPIED


def sample_sojourn(params: CtmcParams, state: ResourceState, rng: np.random.Generator) -> float:
    """Draw how long the resource stays in ``state`` before flipping."""
    rate = params.lam if state is ResourceState.AVAILABLE else params.mu
    return float(rng.exponential(1.0 / rate))
