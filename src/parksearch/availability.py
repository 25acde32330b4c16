"""Two-state availability process per resource.

Each resource flips between ``available`` and ``occupied`` with exponentially
distributed sojourn times (rates ``lam`` out of available, ``mu`` out of
occupied). Predictions are anchored at the latest real-time observation.
Fleet coordination can overlay additive probability subtractions that become
active after a given time; each owner's subtractions are withdrawn exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_number


@dataclass(frozen=True)
class CtmcParams:
    """Flip rates per second; ``1/lam`` is the mean available sojourn, ``1/mu`` the mean occupied sojourn."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", check_number(self.lam, "lam"))  # a Python float, from numpy scalars too
        object.__setattr__(self, "mu", check_number(self.mu, "mu"))

    @classmethod
    def from_mean_times(cls, available_s: float, occupied_s: float) -> "CtmcParams":
        return cls(lam=1.0 / check_number(available_s, "available_s"), mu=1.0 / check_number(occupied_s, "occupied_s"))


def stationary_availability(params: CtmcParams) -> float:
    """Long-run fraction of time a resource is available."""
    return params.mu / (params.lam + params.mu)


class AvailabilityRates:
    """The availability rule for per-resource flip rates, with its rate terms computed once.

    ``after(dt, available_now, idx)`` is ``pi_a + (1 - pi_a if available_now else -pi_a) * exp(-(lam + mu) * dt)``
    per resource, or per resource index in ``idx``, where ``pi_a = mu / (lam + mu)``. One run builds
    one of these and every prediction of that run reads it.
    """

    def __init__(self, lam: np.ndarray | float, mu: np.ndarray | float) -> None:
        lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
        total = lam + mu
        self.neg_total = -total
        self.pi_a = mu / total
        self.up = 1.0 - self.pi_a  # the gap an available resource closes as it decays to pi_a
        self.down = -self.pi_a  # the same for an occupied one

    def after(self, dt: np.ndarray | float, available_now: np.ndarray | bool, idx=None) -> np.ndarray:
        """Availability probability ``dt`` seconds after observing ``available_now`` (broadcasting)."""
        if idx is None:
            neg_total, pi_a, up, down = self.neg_total, self.pi_a, self.up, self.down
        else:
            neg_total, pi_a, up, down = self.neg_total[idx], self.pi_a[idx], self.up[idx], self.down[idx]
        return pi_a + np.where(available_now, up, down) * np.exp(neg_total * dt)


class AdaptionOverlay:
    """Probability subtractions as four parallel columns in insertion order: ``spot`` (a
    ``PlannerContext`` resource index), ``activation`` (the time from which it counts), ``delta`` and
    ``owner`` (a run's agent index). Each owner's entries are withdrawn exactly.

    ``add`` and ``withdraw`` replace the columns rather than write into them, so a column read
    earlier keeps its values.
    """

    def __init__(self) -> None:
        self.spot = np.zeros(0, dtype=np.intp)
        self.activation = np.zeros(0)
        self.delta = np.zeros(0)
        self.owner = np.zeros(0, dtype=np.intp)

    def add(self, spot, activation, delta, owner: int) -> None:
        """Append entries of ``owner`` on one spot or an array of spots; ``activation`` and ``delta``
        are one value or one per spot."""
        spot = np.array(spot, dtype=np.intp, ndmin=1)
        act, dlt = np.empty(len(spot)), np.empty(len(spot))
        act[:], dlt[:] = activation, delta
        self.spot = np.concatenate((self.spot, spot))
        self.activation = np.concatenate((self.activation, act))
        self.delta = np.concatenate((self.delta, dlt))
        self.owner = np.concatenate((self.owner, np.full(len(spot), owner, dtype=np.intp)))

    def withdraw(self, owner: int) -> None:
        """Remove every entry of ``owner``; the rest keep their order, so each sum reads as if it never
        added any. Withdrawing an owner without entries changes nothing."""
        keep = self.owner != owner
        if not keep.all():
            self.spot, self.activation, self.delta, self.owner = (
                self.spot[keep], self.activation[keep], self.delta[keep], self.owner[keep])

    def subtraction(self, n_spots: int, at: np.ndarray | float, exclude_owner: int | None = None) -> np.ndarray:
        """Per spot, the sum in insertion order of its deltas whose activation is at most ``at``, one
        time or one time per spot; ``np.bincount`` adds in input order from 0.0.

        An agent's own deltas describe its fallback behavior to the rest of
        the fleet; they never feed back into that agent's own predictions, so
        callers pass their identity as ``exclude_owner``.
        """
        spot = self.spot
        active = self.activation <= (at if np.ndim(at) == 0 else np.asarray(at)[spot])
        if exclude_owner is not None:
            active &= self.owner != exclude_owner
        return np.bincount(spot[active], weights=self.delta[active], minlength=n_spots)

    def __len__(self) -> int:
        return len(self.spot)


def expected_wait_times_rates(rates: AvailabilityRates, t_tr: np.ndarray) -> np.ndarray:
    """Expected time circling an occupied resource until it can be claimed, per resource.

    Each round trip of duration ``t_tr`` succeeds independently with the
    probability that the occupied-anchored process is available after ``t_tr``,
    so the expected number of trips is geometric.
    """
    t_tr = np.asarray(t_tr, dtype=float)
    return t_tr / rates.after(t_tr, False)
