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
    ``owner`` (a run's agent index, never negative). Each owner's entries are withdrawn exactly.

    The columns are the used slots of buffers that double when full, so an add writes only its own
    entries. A withdrawal marks its owner's entries dead (owner -1 and activation NaN, which no time
    reaches, so no sum counts them); once half the slots are dead, or when a column is read, the dead
    ones are dropped and the rest keep their order.
    """

    def __init__(self) -> None:
        self._buffers = (np.zeros(64, dtype=np.intp), np.zeros(64), np.zeros(64), np.zeros(64, dtype=np.intp))
        self._size = 0  # used slots, dead ones included
        self._dead = 0
        self._slots = tuple(b[:0] for b in self._buffers)  # spot, activation, delta, owner of the used slots

    def _resize(self, size: int) -> None:
        self._size = size
        self._slots = tuple(b[:size] for b in self._buffers)

    def _live(self) -> tuple[np.ndarray, ...]:
        if self._dead:
            keep = self._slots[3] >= 0
            for buf, col in zip(self._buffers, self._slots):
                kept = col[keep]
                buf[:len(kept)] = kept
            self._dead = 0
            self._resize(int(np.count_nonzero(keep)))
        return self._slots

    spot = property(lambda self: self._live()[0])
    activation = property(lambda self: self._live()[1])
    delta = property(lambda self: self._live()[2])
    owner = property(lambda self: self._live()[3])

    def add(self, spot, activation, delta, owner: int) -> None:
        """Append entries of ``owner`` on one spot or an array of spots; ``activation`` and ``delta``
        are one value or one per spot."""
        spot = np.array(spot, dtype=np.intp, ndmin=1)
        start, end = self._size, self._size + len(spot)
        if end > len(self._buffers[0]):
            self._buffers = tuple(np.concatenate((col, np.empty(2 * end - start, dtype=col.dtype)))
                                  for col in self._slots)
        for buf, value in zip(self._buffers, (spot, activation, delta, owner)):
            buf[start:end] = value
        self._resize(end)

    def withdraw(self, owner: int) -> None:
        """Remove every entry of ``owner``; the rest keep their order, so each sum reads as if it never
        added any. Withdrawing an owner without entries changes nothing."""
        _, activation, _, owners = self._slots
        gone = owners == owner
        n_gone = int(np.count_nonzero(gone))
        if n_gone:
            activation[gone] = np.nan
            owners[gone] = -1
            self._dead += n_gone
            if 2 * self._dead > self._size:
                self._live()

    def subtraction(self, n_spots: int, at: np.ndarray | float, exclude_owner: int | None = None) -> np.ndarray:
        """Per spot, the sum in insertion order of its deltas whose activation is at most ``at``, one
        time or one time per spot; ``np.bincount`` adds in input order from 0.0.

        An agent's own deltas describe its fallback behavior to the rest of
        the fleet; they never feed back into that agent's own predictions, so
        callers pass their identity as ``exclude_owner``.
        """
        spot, activation, delta, owner = self._slots
        active = activation <= (at if np.ndim(at) == 0 else np.asarray(at)[spot])
        if exclude_owner is not None:
            active &= owner != exclude_owner
        return np.bincount(spot[active], weights=delta[active], minlength=n_spots)

    def __len__(self) -> int:
        return self._size - self._dead


def expected_wait_times_rates(rates: AvailabilityRates, t_tr: np.ndarray) -> np.ndarray:
    """Expected time circling an occupied resource until it can be claimed, per resource.

    Each round trip of duration ``t_tr`` succeeds independently with the
    probability that the occupied-anchored process is available after ``t_tr``,
    so the expected number of trips is geometric.
    """
    t_tr = np.asarray(t_tr, dtype=float)
    return t_tr / rates.after(t_tr, False)
