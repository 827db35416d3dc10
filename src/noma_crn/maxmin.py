"""Phase 2: maximize the minimum SINR among the admitted users.

Given the admitted set (a Scenario restricted to it, see ``Scenario.prefix``)
and the full budget P_s, find power levels that push the lowest SINR as high
as possible while nobody drops below their own threshold. At the optimum
every user sits at ``max(theta_star, threshold)`` and the budget is spent
completely; this characterization makes the optimum unique.

The SINR constraints are lower-triangular in the ordered powers, so the
minimal total power S(theta) holding everyone at ``max(theta, threshold_n)``
is one pass of phase 1's equality walk (:mod:`noma_crn.model`); run under
the budget, that walk reaches the last user exactly when S(theta) <= P_s.
Two independent solvers are provided and must agree:

* :func:`solve_bisection` — bisection on the candidate minimum SINR ``t``,
  with each step reduced to that closed-form feasibility check; no convex
  solver is needed.
* :func:`solve_waterfill` — walks the distinct threshold levels from the
  bottom, flooding the lowest SINRs upward. S(theta) is continuous and
  strictly increasing beyond the smallest threshold, so the segment
  containing S^{-1}(P_s) is located by scanning breakpoints and the level
  inside it by scalar bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import Scenario, _check_budget, _equality_walk, compute_sinr

__all__ = [
    "MaxMinSolution",
    "min_power_for_targets",
    "total_power_curve",
    "feasible",
    "solve_bisection",
    "solve_waterfill",
]

#: Default bisection tolerance, in linear SINR units.
DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class MaxMinSolution:
    """Solver output over the admitted users (sorted order).

    ``theta_star`` is the optimal minimum SINR (linear). ``iterations`` counts
    bisection steps for the bisection solver and flooded threshold levels for
    the water-filling solver. ``solver`` is ``"bisection"`` or ``"waterfill"``.
    """

    theta_star: float
    powers: np.ndarray
    achieved_sinr: np.ndarray
    iterations: int
    solver: str


def min_power_for_targets(scenario: Scenario, targets) -> tuple[float, np.ndarray]:
    """Minimal total power meeting per-user SINR targets, and the powers themselves.

    Each constraint only involves earlier powers, so taking every constraint
    at equality front-to-back, P_n = lambda_n * (sum_{j<n} P_j + N_n/G_n),
    yields the component-wise minimal feasible point.
    """
    lam = np.asarray(targets, dtype=float)
    if lam.shape != (scenario.n_sus,):
        raise ValueError(f"targets must have shape ({scenario.n_sus},), got {lam.shape}")
    if lam.size and np.any(lam <= 0.0):
        raise ValueError("targets must be strictly positive")
    powers, total = _equality_walk(lam.tolist(), scenario.noise_over_gain.tolist())
    return total, np.asarray(powers, dtype=float)


def total_power_curve(scenario: Scenario, theta: float) -> float:
    """S(theta): total power to hold every user at max(theta, own threshold)."""
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError("theta must be strictly positive and finite")
    _, total = _equality_walk(scenario.su_thresholds.tolist(),
                              scenario.noise_over_gain.tolist(), floor=theta)
    return total


def feasible(scenario: Scenario, t: float, budget: float) -> bool:
    """Can all users reach SINR >= max(t, own threshold) within ``budget``?"""
    _check_budget(budget)
    return total_power_curve(scenario, t) <= budget


def _check_phase2_inputs(scenario: Scenario, budget: float,
                         epsilon: float) -> tuple[list[float], list[float], float]:
    """Thresholds and N_n/G_n as the walk's float lists, and S at the thresholds."""
    if scenario.n_sus == 0:
        raise ValueError("phase 2 is undefined for an empty admitted set")
    _check_budget(budget)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be strictly positive and finite")
    thresholds = scenario.su_thresholds.tolist()
    over_gain = scenario.noise_over_gain.tolist()
    _, required = _equality_walk(thresholds, over_gain)
    if required > budget:
        raise InfeasibleError(
            f"budget {budget!r} W is below the {required!r} W needed to hold "
            "every admitted user at its threshold"
        )
    return thresholds, over_gain, required


def _fits(thresholds: list[float], over_gain: list[float], budget: float,
          theta: float) -> bool:
    """S(theta) <= budget: the budgeted walk at floor theta reaches the last user."""
    powers, _ = _equality_walk(thresholds, over_gain, budget, theta)
    return len(powers) == len(thresholds)


def _sinr_upper_bound(scenario: Scenario, budget: float) -> float:
    # No user can beat the SINR of getting the whole budget interference-free.
    return float(np.max(budget * scenario.su_gains / scenario.su_noise))


def _level_root(thresholds: list[float], over_gain: list[float], budget: float,
                lo: float, hi: float) -> float:
    """Solve S(theta) = budget on [lo, hi] by scalar bisection.

    Requires S(lo) <= budget <= S(hi); returns the certified-feasible side of
    an interval narrowed to float resolution, so S(root) <= budget with the
    shortfall at summation-roundoff level.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _fits(thresholds, over_gain, budget, mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
    return lo


def _assemble(scenario: Scenario, budget: float, theta_star: float, level: float,
              iterations: int, solver: str) -> MaxMinSolution:
    """Powers at targets max(level, thresholds), budget closed on the last user."""
    powers, _ = _equality_walk(scenario.su_thresholds.tolist(),
                               scenario.noise_over_gain.tolist(), floor=level)
    powers = np.asarray(powers)
    # Fold the (roundoff-level) residual into the weakest user so the budget
    # is spent exactly; only its own SINR moves, and only by ~1 ulp.
    powers[-1] += budget - powers.sum()
    if powers[-1] < 0.0:
        powers[-1] = 0.0
    return MaxMinSolution(
        theta_star=float(theta_star),
        powers=powers,
        achieved_sinr=compute_sinr(scenario, powers),
        iterations=iterations,
        solver=solver,
    )


def solve_bisection(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via bisection on the candidate minimum ``t``.

    Starts from the bracket ``l = min(thresholds)`` (feasible after phase 1)
    and ``u = max(budget * G_n / N_n)`` (nobody can do better than a lone user
    with the whole budget) and runs exactly ceil(log2((u - l)/epsilon))
    halvings: feasible midpoints raise ``l``, infeasible ones lower ``u``.
    ``theta_star`` is the certified feasible side ``l``; the leftover budget
    (below what one epsilon of SINR would cost) is then spread with the
    water-filling tie rule so the budget comes out fully spent.
    """
    thresholds, over_gain, _ = _check_phase2_inputs(scenario, budget, epsilon)
    lo = float(np.min(scenario.su_thresholds))
    hi = max(_sinr_upper_bound(scenario, budget), lo)
    width = hi - lo
    iterations = 0 if width <= epsilon else math.ceil(math.log2(width / epsilon))
    for _ in range(iterations):
        t = 0.5 * (lo + hi)
        if _fits(thresholds, over_gain, budget, t):
            lo = t
        else:
            hi = t
    theta_star = lo
    level = _level_root(thresholds, over_gain, budget, lo, hi)
    return _assemble(scenario, budget, theta_star, level, iterations, "bisection")


def solve_waterfill(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via the analytical water-filling walk over threshold levels.

    S(theta) is piecewise polynomial with breakpoints at the distinct
    thresholds and strictly increasing past the smallest one. Scan the
    breakpoints for the segment holding S^{-1}(P_s), then bisect inside it
    (well below ``epsilon``; the interval collapses to float resolution).
    ``iterations`` reports how many threshold levels were fully flooded.
    """
    thresholds, over_gain, required = _check_phase2_inputs(scenario, budget, epsilon)
    if scenario.n_sus == 1:
        # Degenerate case: the whole budget goes to the only user, exactly.
        # Clamping repairs the 1-ulp dip below the threshold that float
        # non-associativity can produce when the budget has zero slack.
        gain = float(scenario.su_gains[0])
        noise = float(scenario.su_noise[0])
        theta = max(budget * gain / noise, float(scenario.su_thresholds[0]))
        powers = np.asarray([budget])
        return MaxMinSolution(
            theta_star=theta,
            powers=powers,
            achieved_sinr=compute_sinr(scenario, powers),
            iterations=0,
            solver="waterfill",
        )
    if budget == required:
        # Zero slack: everyone stays at their threshold.
        theta = float(np.min(scenario.su_thresholds))
        return _assemble(scenario, budget, theta, theta, 0, "waterfill")
    breakpoints = np.unique(scenario.su_thresholds)  # ascending
    flooded = 0
    lo = float(breakpoints[0])
    hi = None
    for k in range(1, len(breakpoints)):
        level = float(breakpoints[k])
        if _fits(thresholds, over_gain, budget, level):
            lo = level
            flooded = k
        else:
            hi = level
            break
    if hi is None:
        # Above every threshold: cap with the lone-user SINR bound.
        flooded = len(breakpoints) - 1
        hi = max(_sinr_upper_bound(scenario, budget), lo)
    theta = _level_root(thresholds, over_gain, budget, lo, hi)
    return _assemble(scenario, budget, theta, theta, flooded, "waterfill")
