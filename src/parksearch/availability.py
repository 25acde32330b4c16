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


@dataclass(frozen=True)
class OverlayDelta:
    """One additive subtraction of a spot's predicted availability, active from ``activation_time``."""

    spot: int
    activation_time: float
    delta: float
    owner: int


class AdaptionOverlay:
    """Per-spot probability subtractions, withdrawn exactly by owner; spots and owners are indices
    (``PlannerContext`` resource indices and a run's agent indices)."""

    def __init__(self) -> None:
        self._entries: dict[int, list[OverlayDelta]] = {}
        self._by_owner: dict[int, dict[int, None]] = {}  # owner -> spots it holds entries on, in order

    def add(self, spot: int, activation_time: float, delta: float, owner: int) -> OverlayDelta:
        entry = OverlayDelta(spot, activation_time, delta, owner)
        self._entries.setdefault(spot, []).append(entry)
        self._by_owner.setdefault(owner, {})[spot] = None
        return entry

    def withdraw(self, owner: int) -> None:
        """Remove every entry of ``owner``; the rest keep their order, so each sum reads as if it never
        added any. Withdrawing an owner without entries changes nothing."""
        for spot in self._by_owner.pop(owner, ()):
            kept = [e for e in self._entries[spot] if e.owner != owner]
            if kept:
                self._entries[spot] = kept
            else:
                del self._entries[spot]

    def pending_subtraction(self, spot: int, at: float, exclude_owner: int | None = None) -> float:
        """Sum, in insertion order, of the spot's deltas whose activation time has passed.

        An agent's own deltas describe its fallback behavior to the rest of
        the fleet; they never feed back into that agent's own predictions, so
        callers pass their identity as ``exclude_owner``.
        """
        return sum(
            e.delta
            for e in self._entries.get(spot, ())
            if e.activation_time <= at and e.owner != exclude_owner
        )

    def entries_for(self, spot: int) -> tuple[OverlayDelta, ...]:
        return tuple(self._entries.get(spot, ()))

    def spots(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def __bool__(self) -> bool:
        # O(1): ``withdraw`` drops a spot's key together with its last entry.
        return bool(self._entries)


def expected_wait_times_rates(rates: AvailabilityRates, t_tr: np.ndarray) -> np.ndarray:
    """Expected time circling an occupied resource until it can be claimed, per resource.

    Each round trip of duration ``t_tr`` succeeds independently with the
    probability that the occupied-anchored process is available after ``t_tr``,
    so the expected number of trips is geometric.
    """
    t_tr = np.asarray(t_tr, dtype=float)
    return t_tr / rates.after(t_tr, False)
