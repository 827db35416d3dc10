"""Exhaustive desk-scale verifiers for the two allocation phases.

These are deliberately slow and simple: subset enumeration for the admission
count and a uniform simplex grid for the max-min SINR value. They ship with
the library (not only the tests) so reported numbers can be reproduced
directly, and they are exposed through the ``verify`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError
from .model import Scenario, _check_budget, _equality_walk

__all__ = ["GridSpec", "GridSearchResult", "oracle_max_admitted", "oracle_max_min_sinr"]

MAX_SUBSET_USERS = 12
MAX_GRID_USERS = 3
#: Largest grid-search array: the axis for one user, the mesh for two or three.
MAX_GRID_ARRAY_POINTS = 5_000_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform power grid: ``points_per_axis`` levels spanning [0, budget] per user.

    ``budget`` is the grid extent along each axis; normally equal to the power
    budget being verified.
    """

    points_per_axis: int
    budget: float

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")
        _check_budget(self.budget)

    @property
    def step(self) -> float:
        return self.budget / (self.points_per_axis - 1)


@dataclass(frozen=True)
class GridSearchResult:
    """Best grid value and an honest bound on how far the true optimum can sit above it.

    ``value`` is None when no grid point met every threshold (the budget is too
    tight for this grid). ``resolution`` bounds ``optimum - value`` from above
    whenever the optimum has threshold slack of at least ``resolution`` itself
    (binding thresholds can hide the near-optimal corner from the grid).
    """

    value: float | None
    resolution: float
    points_checked: int


def oracle_max_admitted(scenario: Scenario, budget: float) -> int:
    """Largest number of users any subset can admit within ``budget``.

    Enumerates all 2^N subsets, keeps each in descending-gain order, prices it
    with the same exact-threshold recursion the greedy pass uses, and returns
    the size of the largest subset that fits. N is capped at 12.
    """
    _check_budget(budget)
    n = scenario.n_sus
    if n > MAX_SUBSET_USERS:
        raise CapacityError(f"subset enumeration supports at most {MAX_SUBSET_USERS} users, got {n}")
    users = list(zip(scenario.su_thresholds.tolist(), scenario.noise_over_gain.tolist()))
    for size in range(n, 0, -1):
        for subset in combinations(users, size):
            powers, _ = _equality_walk(*zip(*subset), budget)
            if len(powers) == size:
                return size
    return 0


def _best_feasible(min_sinr: np.ndarray, meets_thresholds: np.ndarray) -> float | None:
    if not np.any(meets_thresholds):
        return None
    return float(np.max(min_sinr[meets_thresholds]))


def oracle_max_min_sinr(scenario: Scenario, budget: float, grid: GridSpec) -> GridSearchResult:
    """Grid-search the max-min SINR over power vectors summing to at most ``budget``.

    Enumerates the uniform grid (nested per-axis subdivision, up to three
    users), discards points violating a threshold, and maximizes the per-point
    minimum SINR, written out here as p_n / (sum_{j<n} p_j + c_n) with the
    cost c_n = N_n/G_n. Rounding the true optimizer down to the grid lowers
    any SINR by at most ``step / c_n``, which gives the reported resolution
    ``step / min(c_n)``: the optimum exceeds the returned value by at most
    that, provided its threshold slack covers it.
    """
    n = scenario.n_sus
    if n == 0:
        raise ValueError("grid search is undefined for an empty admitted set")
    if n > MAX_GRID_USERS:
        raise CapacityError(f"grid search supports at most {MAX_GRID_USERS} users, got {n}")
    array_points = grid.points_per_axis ** min(n, 2)
    if array_points > MAX_GRID_ARRAY_POINTS:
        raise CapacityError(f"grid arrays of {array_points} points for {n} users exceed the "
                            f"{MAX_GRID_ARRAY_POINTS}-point cap; lower points_per_axis")
    costs = scenario.noise_over_gain
    thresholds = scenario.su_thresholds
    axis = np.linspace(0.0, grid.budget, grid.points_per_axis)
    # Tiny slack so points on the simplex boundary survive float dust.
    cap = budget * (1.0 + 1e-12)
    resolution = grid.step / float(np.min(costs))

    if n == 1:
        p0 = axis[axis <= cap]
        sinr = p0 / costs[0]
        ok = sinr >= thresholds[0]
        return GridSearchResult(_best_feasible(sinr, ok), resolution, p0.size)

    if n == 2:
        p0, p1 = np.meshgrid(axis, axis, indexing="ij")
        keep = (p0 + p1) <= cap
        p0, p1 = p0[keep], p1[keep]
        g0 = p0 / costs[0]
        g1 = p1 / (p0 + costs[1])
        ok = (g0 >= thresholds[0]) & (g1 >= thresholds[1])
        return GridSearchResult(_best_feasible(np.minimum(g0, g1), ok), resolution, p0.size)

    p1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    flat1, flat2 = p1g.ravel(), p2g.ravel()
    pair_sum = flat1 + flat2
    best: float | None = None
    points = 0
    for p0 in axis:
        keep = pair_sum <= cap - p0
        if not np.any(keep):
            continue
        p1v, p2v = flat1[keep], flat2[keep]
        points += p1v.size
        g0 = p0 / costs[0]
        g1 = p1v / (p0 + costs[1])
        g2 = p2v / ((p0 + p1v) + costs[2])
        ok = (g0 >= thresholds[0]) & (g1 >= thresholds[1]) & (g2 >= thresholds[2])
        if not np.any(ok):
            continue
        cand = float(np.max(np.minimum(g0, np.minimum(g1, g2))[ok]))
        best = cand if best is None else max(best, cand)
    return GridSearchResult(best, resolution, points)
