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
* :func:`solve_waterfill` — floods the lowest SINRs upward. S(theta) is
  continuous, convex and strictly increasing beyond the smallest threshold,
  so one safeguarded Newton root on log S against log theta, whose slope
  comes from the same walk, searches the whole range from the smallest
  threshold to the lone-user bound, threshold kinks included. It returns
  the largest float theta with S(theta) <= P_s, in under ten walks on
  average where bisection takes ~75.

The Monte-Carlo sweeps give every user one threshold and solve many admitted
sets at once: :func:`_waterfill_rows` runs water-filling's root on every row
of an (R, K) block, each probe one row-wise walk (``model._equality_rows``).
Sets of fewer than K users are padded with users of zero cost, which leave
the walk's bits alone, so one search serves a block of every admitted count.
Because theta* is the largest fitting float, not wherever a search stopped,
each row's answer equals :func:`solve_waterfill`'s bit for bit.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import Scenario, _check_budget, _equality_rows, _equality_walk, _sinr

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
    the water-filling solver: the distinct thresholds <= theta_star, less one.
    ``solver`` is ``"bisection"`` or ``"waterfill"``.
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


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be strictly positive and finite")


def _check_phase2_inputs(scenario: Scenario, budget: float,
                         epsilon: float) -> tuple[list[float], list[float],
                                               tuple[list[float], float]]:
    """Thresholds and N_n/G_n as the walk's float lists, and the walk at the thresholds.

    That walk is also the walk at theta = min(thresholds), where S starts to rise.
    """
    if scenario.n_sus == 0:
        raise ValueError("phase 2 is undefined for an empty admitted set")
    _check_budget(budget)
    _check_epsilon(epsilon)
    thresholds = scenario.su_thresholds.tolist()
    over_gain = scenario.noise_over_gain.tolist()
    walk = _equality_walk(thresholds, over_gain)
    required = walk[1]
    if required > budget:
        raise InfeasibleError(
            f"budget {budget!r} W is below the {required!r} W needed to hold "
            "every admitted user at its threshold"
        )
    return thresholds, over_gain, walk


def _fits(thresholds: list[float], over_gain: list[float], budget: float,
          theta: float) -> bool:
    """S(theta) <= budget: the budgeted walk at floor theta reaches the last user."""
    return _equality_walk(thresholds, over_gain, budget, theta, keep=False)[0]


def _sinr_upper_bound(scenario: Scenario, budget: float) -> float:
    # No user can beat the SINR of getting the whole budget interference-free.
    # It may overflow to inf, silently in float arithmetic; each solver brackets that case.
    budget = float(budget)
    return max(budget * g / n for g, n in zip(scenario.su_gains.tolist(),
                                              scenario.su_noise.tolist()))


def _level_root(thresholds: list[float], over_gain: list[float], budget: float,
                lo: float, hi: float) -> float:
    """Bisection's last step: solve S(theta) = budget on [lo, hi] by scalar bisection.

    Requires S(lo) <= budget <= S(hi); returns the certified-feasible side of
    an interval narrowed to float resolution, so S(root) <= budget with the
    shortfall at summation-roundoff level. Only :func:`solve_bisection` uses
    it; water-filling has its own root, so the two solvers cross-check.
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


def _float_bits(x: float) -> int:
    # For non-negative floats the bit pattern orders like the value, and
    # consecutive integers are consecutive floats.
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _log_slope(thresholds: list[float], theta: float, powers: list[float]) -> float:
    """theta * S'(theta), the right derivative, from the walk's powers at ``theta``.

    Reverse chain rule: the total after user n grows as (1 + lambda_n) per
    later user, and d(total_n)/d(lambda_n) = P_n / lambda_n, so
    theta * S' = sum over floored users (threshold <= theta, lambda_n = theta)
    of P_n * prod_{m>n} (1 + lambda_m). A user whose threshold equals theta
    rises with theta from there on, so counting it gives the right derivative
    at that kink.
    """
    slope = 0.0
    growth = 1.0
    for target, power in zip(reversed(thresholds), reversed(powers)):
        if target <= theta:
            slope += power * growth
        growth *= 1.0 + (target if target > theta else theta)
    return slope


def _newton_root(thresholds: list[float], over_gain: list[float], budget: float,
                 lo: float, hi: float, walk: tuple[list[float], float]) -> float:
    """Largest float theta in [lo, hi) with S(theta) <= budget.

    ``walk`` is the unbudgeted walk at ``lo``, which fits; ``hi`` does not
    fit, or lies one float past the lone-user bound. With lambda_n =
    max(theta, threshold_n), S(theta) = sum_n lambda_n c_n prod_{m>n} (1 +
    lambda_m). Each lambda_n is convex, nondecreasing and log-convex in log
    theta, so S is convex in theta and log S is convex in log theta across
    the threshold kinks too. A Newton step on either, with the right
    derivative as slope, therefore never lands below the root. Each step
    takes the nearer of the two, aimed half an ulp above the budget: where
    S is flat, many floats give S == budget and the root is the last of
    them. Every probe narrows the bracket [lo, hi]; a step that leaves it
    (a log step past the float range counts as leaving it), or an S(theta)
    that overflows, takes the geometric midpoint.
    """
    theta = lo
    powers, total = walk
    half_ulp = 0.5 * math.ulp(budget)
    stride = 1
    for _ in range(100):
        slope = _log_slope(thresholds, theta, powers)  # inf or nan if S overflowed
        if 0.0 < slope < math.inf:
            try:
                step = theta * min(math.expm1((math.log(budget / total) + half_ulp / budget)
                                              * (total / slope)),
                                   (budget - total + half_ulp) / slope)
            except OverflowError:
                step = math.inf
            # Convergence is tested before the bracket: a last step that rounds
            # onto an end must not restart the search from the far end.
            if abs(step) <= 4e-16 * theta:
                # Floats per ulp of S: how far the flat run of S == budget reaches.
                stride = int(min(max(1.0, math.ulp(budget) * theta / (slope * math.ulp(theta))),
                                 2.0 ** 52))
                theta += step
                break
            theta += step
        if not lo < theta < hi:
            theta = math.sqrt(lo) * math.sqrt(hi)
            if not lo < theta < hi:
                break
        powers, total = _equality_walk(thresholds, over_gain, floor=theta)
        if total <= budget:
            lo = theta
        else:
            hi = theta
    return _last_fit(thresholds, over_gain, budget, lo, hi, theta, stride)


def _last_fit(thresholds: list[float], over_gain: list[float], budget: float,
              lo: float, hi: float, theta: float, stride: int) -> float:
    """Largest float in [lo, hi) that fits, given that lo fits and hi does not.

    Probes ``theta``, gallops from it toward the other end of the bracket in
    strides of ``stride``, 2 * ``stride``, 4 * ``stride``... floats, then
    bisects the bracket over float bit patterns. S is monotone in floating
    point too, so the answer does not depend on where the search started.
    """
    fit, miss = _float_bits(lo), _float_bits(hi)
    start = min(max(_float_bits(theta), fit), miss)
    if fit < start < miss:
        if _fits(thresholds, over_gain, budget, _bits_float(start)):
            fit = start
        else:
            miss = start
    upward = start == fit
    while miss - fit > stride:
        probe = fit + stride if upward else miss - stride
        if _fits(thresholds, over_gain, budget, _bits_float(probe)):
            fit = probe
            if not upward:
                break
        else:
            miss = probe
            if upward:
                break
        stride *= 2
    while miss - fit > 1:
        mid = (fit + miss) // 2
        if _fits(thresholds, over_gain, budget, _bits_float(mid)):
            fit = mid
        else:
            miss = mid
    return _bits_float(fit)


def _assemble(scenario: Scenario, thresholds: list[float], over_gain: list[float],
              budget: float, theta_star: float, level: float, iterations: int,
              solver: str) -> MaxMinSolution:
    """Powers at targets max(level, thresholds), budget closed on the last user."""
    powers, _ = _equality_walk(thresholds, over_gain, floor=level)
    powers = np.asarray(powers)
    # Fold the (roundoff-level) residual into the weakest user so the budget
    # is spent exactly; only its own SINR moves, and only by ~1 ulp.
    powers[-1] += budget - powers.sum()
    if powers[-1] < 0.0:
        powers[-1] = 0.0
    return MaxMinSolution(
        theta_star=float(theta_star),
        powers=powers,
        achieved_sinr=_sinr(powers, scenario.su_gains, scenario.su_noise),
        iterations=iterations,
        solver=solver,
    )


def solve_bisection(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via bisection on the candidate minimum ``t``.

    Starts from the bracket ``l = min(thresholds)`` (feasible after phase 1)
    and ``u = max(budget * G_n / N_n)`` (nobody can do better than a lone user
    with the whole budget; the largest float if that overflows) and runs
    exactly ceil(log2((u - l)/epsilon)) halvings: feasible midpoints raise
    ``l``, infeasible ones lower ``u``.
    ``theta_star`` is the certified feasible side ``l``; the leftover budget
    (below what one epsilon of SINR would cost) is then spread with the
    water-filling tie rule so the budget comes out fully spent.
    """
    thresholds, over_gain, _ = _check_phase2_inputs(scenario, budget, epsilon)
    lo = float(np.min(scenario.su_thresholds))
    hi = min(max(_sinr_upper_bound(scenario, budget), lo), sys.float_info.max)
    width = hi - lo
    if width <= epsilon:
        iterations = 0
    elif width / epsilon < math.inf:
        iterations = math.ceil(math.log2(width / epsilon))
    else:  # the ratio overflows, its log does not
        iterations = math.ceil(math.log2(width) - math.log2(epsilon))
    for _ in range(iterations):
        t = 0.5 * (lo + hi)
        if _fits(thresholds, over_gain, budget, t):
            lo = t
        else:
            hi = t
    theta_star = lo
    level = _level_root(thresholds, over_gain, budget, lo, hi)
    return _assemble(scenario, thresholds, over_gain, budget, theta_star, level, iterations,
                     "bisection")


def solve_waterfill(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via water-filling: one Newton search for the water level.

    S(theta) is convex, piecewise polynomial with kinks at the distinct
    thresholds, and strictly increasing past the smallest one. One
    safeguarded Newton root (:func:`_newton_root`) searches the bracket from
    the smallest threshold, which fits, to one float past the lone-user
    bound, across the kinks: ``theta_star`` is the largest float with
    S(theta) <= P_s, so it does not depend on ``epsilon`` or on the search
    path; a budget with no slack takes the same path. ``iterations``
    reports how many threshold levels were fully flooded: the distinct
    thresholds <= theta_star, less one.
    """
    thresholds, over_gain, walk = _check_phase2_inputs(scenario, budget, epsilon)
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
            achieved_sinr=_sinr(powers, scenario.su_gains, scenario.su_noise),
            iterations=0,
            solver="waterfill",
        )
    lo = min(thresholds)
    # The lone-user bound may itself fit, so the bracket ends one float past it.
    hi = math.nextafter(max(_sinr_upper_bound(scenario, budget), lo), math.inf)
    theta = _newton_root(thresholds, over_gain, budget, lo, hi, walk)
    # S is monotone in floating point, so a threshold fits exactly when it is <= theta.
    flooded = len({t for t in thresholds if t <= theta}) - 1
    return _assemble(scenario, thresholds, over_gain, budget, theta, theta, flooded, "waterfill")


def _waterfill_rows(threshold: float, gains: np.ndarray, noise,
                    budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_waterfill` on every row of an (R, K) block whose users share a threshold.

    Row r holds one admitted set of k_r >= 1 users, right-aligned: gains
    sorted non-increasing in its last k_r columns and 0 in the columns before
    them, ``noise`` broadcasting against them, a budget ``budgets[r]`` that
    affords its users at ``threshold``. Returns theta_star (R,) and the powers
    (R, K), 0 in the padded columns, each row equal to ``solve_waterfill`` on
    its users bit for bit. With one threshold t the only segment is [t, one
    float past the lone-user bound), where every user sits at theta: the
    scalar solver's Newton root and last-fit search run on all rows with
    k_r >= 2 at once, every probe one :func:`_equality_rows` walk of the
    block, and end on the same canonical theta_star, the largest float with
    S(theta) <= budget. A padded user costs N/G = 0, so it walks to power 0.0
    and leaves the total at 0.0: each row's walk is its dense walk bit for
    bit, and one search serves rows of every count. The lone-user closed form
    and the budget fold, whose sum must not see the padding, run per count.
    """
    noise = np.broadcast_to(noise, gains.shape)
    users = gains.shape[1]
    counts = np.count_nonzero(gains, axis=1)
    theta, powers = np.empty(len(budgets)), np.zeros(gains.shape)
    lone = counts == 1
    # As in solve_waterfill: the whole budget goes to the only user.
    theta[lone] = np.maximum(budgets[lone] * gains[lone, -1] / noise[lone, -1], threshold)
    powers[lone, -1] = budgets[lone]
    rows = np.flatnonzero(~lone)
    if rows.size:
        gains, noise, budgets, counts = gains[rows], noise[rows], budgets[rows], counts[rows]
        lo = np.full(len(rows), threshold)
        with np.errstate(all="ignore"):  # the bound and S(theta) may overflow, as in the scalar root
            over_gain = np.where(gains > 0.0, noise / gains, 0.0)
            hi = np.nextafter(np.maximum(np.max(budgets[:, None] * gains / noise, axis=1), lo),
                              np.inf)
            lo, hi, level, stride = _newton_rows(threshold, over_gain, budgets, lo, hi, counts)
            level = _last_fit_rows(threshold, over_gain, budgets, lo, hi, level, stride)
        block = _equality_rows(threshold, over_gain, floor=level)[0]
        # The budget closes on the weakest user, as in _assemble, summing only
        # the row's own users: padding would regroup numpy's pairwise sum.
        for k in set(counts.tolist()):
            group = np.flatnonzero(counts == k)
            last = block[group, -1] + (budgets[group] - block[group, users - k:].sum(axis=1))
            block[group, -1] = np.where(last < 0.0, 0.0, last)
        theta[rows], powers[rows] = level, block
    return theta, powers


def _newton_rows(threshold, over_gain, budgets, lo, hi, counts):
    """:func:`_newton_root` masked per row, on one segment where every user is floored.

    Row r's ``counts[r]`` users sit in its last columns, after padding that
    costs nothing. Returns the narrowed brackets, each row's last theta and
    its gallop stride, for :func:`_last_fit_rows`.
    """
    rows, users = over_gain.shape
    theta = lo
    powers, _, total = _equality_rows(threshold, over_gain)
    ulp = np.spacing(budgets)
    half_ulp = 0.5 * ulp
    rel_half_ulp = half_ulp / budgets
    stride = np.ones(rows)
    searching = np.ones(rows, dtype=bool)
    # Later users per user; 0 for padding, whose (1 + theta)**e could
    # overflow alone and turn its 0 power into nan.
    exponents = np.arange(users - 1, -1, -1)
    exponents = np.where(exponents < counts[:, None], exponents, 0)
    for _ in range(100):
        # theta * S'(theta): user n's power times (1 + theta) per later user.
        slope = (powers * (1.0 + theta)[:, None] ** exponents).sum(axis=1)
        newton = searching & (0.0 < slope) & (slope < math.inf)
        step = theta * np.minimum(np.expm1((np.log(budgets / total) + rel_half_ulp) * (total / slope)),
                                  (budgets - total + half_ulp) / slope)
        converged = newton & (np.abs(step) <= 4e-16 * theta)
        if converged.any():
            # Floats per ulp of S: how far the flat run of S == budget reaches.
            flat_run = ulp * theta / (slope * np.spacing(theta))
            stride = np.where(converged, np.fmin(np.fmax(flat_run, 1.0), 2.0 ** 52), stride)
            searching &= ~converged
        theta = np.where(newton, theta + step, theta)
        outside = searching & ~((lo < theta) & (theta < hi))
        if outside.any():
            theta = np.where(outside, np.sqrt(lo) * np.sqrt(hi), theta)
            searching &= ~(outside & ~((lo < theta) & (theta < hi)))
        if not searching.any():
            break
        powers, _, total = _equality_rows(threshold, over_gain, floor=theta)
        fit = total <= budgets
        lo = np.where(searching & fit, theta, lo)
        hi = np.where(searching & ~fit, theta, hi)
    return lo, hi, theta, stride.astype(np.int64)


def _last_fit_rows(threshold, over_gain, budgets, lo, hi, theta, stride) -> np.ndarray:
    """:func:`_last_fit` masked per row, over int64 float bit patterns."""

    def fits(probe, where, fit):
        floor = np.where(where, probe, fit).view(np.float64)
        return where & (_equality_rows(threshold, over_gain, floor=floor)[2] <= budgets)

    fit, miss = lo.view(np.int64), hi.view(np.int64)
    start = np.minimum(np.maximum(theta.view(np.int64), fit), miss)
    probing = (fit < start) & (start < miss)
    if probing.any():
        ok = fits(start, probing, fit)
        fit, miss = np.where(ok, start, fit), np.where(probing & ~ok, start, miss)
    upward = start == fit
    galloping = miss - fit > stride
    while galloping.any():
        probe = np.where(upward, fit + stride, miss - stride)
        ok = fits(probe, galloping, fit)
        fit, miss = np.where(ok, probe, fit), np.where(galloping & ~ok, probe, miss)
        galloping &= ok == upward
        stride = np.minimum(2 * stride, 2 ** 62)
        galloping &= miss - fit > stride
    while True:
        bisecting = miss - fit > 1
        if not bisecting.any():
            return fit.view(np.float64)
        mid = fit + (miss - fit) // 2
        ok = fits(mid, bisecting, fit)
        fit, miss = np.where(ok, mid, fit), np.where(bisecting & ~ok, mid, miss)
