"""Phase 2: maximize the minimum SINR among the admitted users.

Given the admitted users and the full budget P_s, find power levels that
push the lowest SINR as high as possible while nobody drops below their own
threshold. At the optimum every user sits at ``max(theta_star, threshold)``
and the budget is spent completely; this characterization makes the optimum
unique. Every solve closes the budget on the weakest user from its final
walk's own total. Each public solver checks its inputs
(:func:`_check_phase2_inputs`) and hands them to a core over the walk's float
lists (:func:`_bisection`, :func:`_waterfill`); ``pipeline.run_two_phase``
calls the cores on admission's lists and walk. A core reads a user only as
its threshold and its cost c_n = N_n/G_n: both search the one bracket
[min threshold, B/min c_n * (1 + 2**-50)) (:func:`_bracket`), and the SINRs
P_n / (sum_{j<n} P_j + c_n) are the walk read back.

The SINR constraints are lower-triangular in the ordered powers, so the
minimal total power S(theta) holding everyone at ``max(theta, threshold_n)``
is one pass of phase 1's equality walk (:mod:`noma_crn.model`); run under
the budget, that walk reaches the last user exactly when S(theta) <= P_s.
Two independent solvers are provided and must agree:

* :func:`solve_bisection` — bisection on the candidate minimum SINR ``t``,
  with each step reduced to that closed-form feasibility check; no convex
  solver is needed. One secant step through S at the ends of the final
  bracket then places the common level where the budget is spent.
* :func:`solve_waterfill` — floods the lowest SINRs upward. S(theta) is
  continuous, convex and strictly increasing beyond the smallest threshold,
  so one safeguarded Newton root on log S against log theta, whose slope
  comes from the same walk, searches the whole range from the smallest
  threshold to the lone-user bound, threshold kinks included. It returns
  the largest float theta with S(theta) <= P_s, for every admitted count
  (one user included, with no closed form of its own), in under ten walks
  on average where bisection takes its ceil(log2((u - l)/epsilon)) halvings
  plus four walks, ~46 on mixed-threshold sets of 5-30 users.

The Monte-Carlo sweeps give every user one threshold and solve many admitted
sets at once: :func:`_waterfill_rows` runs water-filling's root on every row
of an (R, K) block, each probe one row-wise walk (``model._equality_rows``).
Sets of fewer than K users are padded with users of zero cost, which leave
the walk's bits alone, so one search serves a block of every admitted count.
With one threshold, S(theta) past it is a polynomial in closed form; a few
Newton steps on it, array arithmetic with no walk, land within a few floats of
theta*. One walk there, one Newton step from that walk and the last-fit search
finish, with no loop of their own, and a block takes about four walks.
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
from .model import Scenario, _check_budget, _equality_rows, _equality_walk

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
    ``evaluations`` counts the S(theta) walks the solve ran, the feasibility
    check at the thresholds and the walk for the powers included.
    ``solver`` is ``"bisection"`` or ``"waterfill"``.
    """

    theta_star: float
    powers: np.ndarray
    achieved_sinr: np.ndarray
    iterations: int
    evaluations: int
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


def _check_phase2_inputs(scenario: Scenario, budget: float, epsilon: float) -> tuple:
    """A public solver's arguments as its core takes them: thresholds and
    N_n/G_n as the walk's float lists, the budget as a float, epsilon, and the
    walk at the thresholds.

    That walk is also the walk at theta = min(thresholds), where S starts to
    rise. A numpy budget is taken as a Python float, so every probe runs in
    float arithmetic, which overflows to inf without numpy's warning.
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
    return thresholds, over_gain, float(budget), epsilon, walk


def _fits(thresholds: list[float], over_gain: list[float], budget: float,
          theta: float) -> bool:
    """S(theta) <= budget: the budgeted walk at floor theta reaches the last user."""
    return _equality_walk(thresholds, over_gain, budget, theta, keep=False)[0]


#: Phase 2's bracket ends this factor past max(lone-user bound, smallest
#: threshold), a few floats out. The bound u = B/c_n of the cheapest user n
#: may itself fit; the top never does: at theta >= u * _BRACKET_TOP user n
#: alone costs at least B * (1 + 2**-50) * (1 - 2**-53)**3 > B, one factor
#: (1 - 2**-53) per rounding (in u, the top and theta*c_n), and the users
#: before and after it only add. A lone user's root is u itself; with the top
#: one float past u, Newton, aiming half an ulp past the root, would keep
#: leaving the bracket for midpoints.
_BRACKET_TOP = 1.0 + 2.0 ** -50


def _bracket(thresholds: list[float], over_gain: list[float],
             budget: float) -> tuple[float, float]:
    """The bracket [lo, top) both solvers search: the smallest threshold, which
    fits, and the top, which never does, ``_waterfill_rows``' bit for bit. The
    top may overflow to inf, silently in float arithmetic."""
    lo = min(thresholds)
    return lo, max(budget / min(over_gain), lo) * _BRACKET_TOP


def _float_bits(x: float) -> int:
    # For non-negative floats the bit pattern orders like the value, and
    # consecutive integers are consecutive floats.
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _log_slope(thresholds: list[float], theta: float, powers: list[float]) -> float:
    """theta * S'(theta), the right derivative, from the walk's powers at ``theta``.

    Forward chain rule: the total after user n grows as (1 + lambda_n) times
    the total before it, and d(total_n)/d(lambda_n) = P_n / lambda_n, so the
    derivative D_n of the total after user n against log theta is
    (1 + lambda_n) * D_{n-1}, plus P_n where user n is floored (threshold <=
    theta, lambda_n = theta), and D_K = theta * S'. D_n sums at most n terms,
    each at most the total T_n, so D_n <= n * T_n: D overflows only within a
    factor K of S. A user whose threshold equals theta rises with theta from
    there on, so counting it gives the right derivative at that kink.
    """
    slope = 0.0
    for target, power in zip(thresholds, powers):
        if target <= theta:
            slope = (1.0 + theta) * slope + power
        else:
            slope *= 1.0 + target
    return slope


def _newton_root(thresholds: list[float], over_gain: list[float], budget: float,
                 lo: float, hi: float, walk: tuple[list[float], float]) -> tuple[float, int]:
    """Largest float theta in [lo, hi) with S(theta) <= budget, and the walks it took.

    ``walk`` is the unbudgeted walk at ``lo``, which fits; ``hi`` does not
    fit. With lambda_n = max(theta, threshold_n), S(theta) = sum_n lambda_n
    c_n prod_{m>n} (1 + lambda_m). Each lambda_n is convex, nondecreasing
    and log-convex in log theta, so S is convex in theta and log S is convex
    in log theta across the threshold kinks too. A Newton step on either,
    with the right derivative as slope, therefore never lands below the
    root. Each step takes the nearer of the two, aimed half an ulp above the
    budget: where S is flat, many floats give S == budget and the root is
    the last of them. Every probe narrows the bracket [lo, hi]; a step that
    leaves it (a log step past the float range counts as leaving it), or a
    walk whose S(theta) or slope overflowed, takes the bracket's midpoint
    over float bit patterns, as :func:`_last_fit` bisects: unlike a midpoint
    of the values, it is finite when ``hi`` is inf.
    """
    theta = lo
    powers, total = walk
    half_ulp = 0.5 * math.ulp(budget)
    walks = 0
    for _ in range(100):
        slope = _log_slope(thresholds, theta, powers)  # inf or nan if it overflowed
        if 0.0 < slope < math.inf and budget / total > 0.0:  # S finite, B/S no underflow
            try:
                step = theta * min(math.expm1((math.log(budget / total) + half_ulp / budget)
                                              * (total / slope)),
                                   (budget - total + half_ulp) / slope)
            except OverflowError:
                step = math.inf
            # Convergence is tested before the bracket: a last step that rounds
            # onto an end must not restart the search from the far end.
            if abs(step) <= 4e-16 * theta:
                theta += step
                break
            theta += step
        if not lo < theta < hi:
            theta = _bits_float((_float_bits(lo) + _float_bits(hi)) // 2)
            if not lo < theta < hi:
                break
        powers, total = _equality_walk(thresholds, over_gain, floor=theta)
        walks += 1
        if total <= budget:
            lo = theta
        else:
            hi = theta
    theta, probes = _last_fit(thresholds, over_gain, budget, lo, hi, theta)
    return theta, walks + probes


def _last_fit(thresholds: list[float], over_gain: list[float], budget: float,
              lo: float, hi: float, theta: float) -> tuple[float, int]:
    """Largest float in [lo, hi) that fits, given that lo fits and hi does not,
    and the probes it took.

    Probes ``theta``, gallops from it toward the other end of the bracket in
    strides of 1, 2, 4... floats, then bisects the bracket over float bit
    patterns. S is monotone in floating point too, so the answer does not
    depend on where the search started.
    """
    fit, miss = _float_bits(lo), _float_bits(hi)
    start = min(max(_float_bits(theta), fit), miss)
    probes = 0
    if fit < start < miss:
        probes += 1
        if _fits(thresholds, over_gain, budget, _bits_float(start)):
            fit = start
        else:
            miss = start
    upward = start == fit
    stride = 1
    while miss - fit > stride:
        probe = fit + stride if upward else miss - stride
        probes += 1
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
        probes += 1
        if _fits(thresholds, over_gain, budget, _bits_float(mid)):
            fit = mid
        else:
            miss = mid
    return _bits_float(fit), probes


def _assemble(thresholds: list[float], over_gain: list[float], budget: float,
              theta_star: float, level: float, iterations: int, evaluations: int,
              solver: str) -> MaxMinSolution:
    """Powers at targets max(level, thresholds), budget closed on the last user,
    and the SINRs they achieve.

    ``evaluations`` counts the walks before this one, which adds its own.
    """
    powers, total = _equality_walk(thresholds, over_gain, floor=level)
    # Fold the (roundoff-level) residual against the walk's own total into the
    # weakest user; only its own SINR moves, and only by ~1 ulp.
    powers[-1] = max(powers[-1] + (budget - total), 0.0)
    # model._sinr's operations in float arithmetic: a SINR past the float
    # range is inf, with no warning, and the callers refuse it by name.
    achieved_sinr = []
    prior = 0.0
    for power, cost in zip(powers, over_gain):
        achieved_sinr.append(power / (prior + cost))
        prior += power
    return MaxMinSolution(
        theta_star=float(theta_star),
        powers=np.asarray(powers),
        achieved_sinr=np.asarray(achieved_sinr),
        iterations=iterations,
        evaluations=evaluations + 1,
        solver=solver,
    )


def _secant_level(thresholds: list[float], over_gain: list[float], budget: float,
                  lo: float, hi: float) -> float:
    """Bisection's last step: the level where the secant through S at ``lo`` and
    ``hi`` meets the budget, clipped to [lo, hi].

    S is convex, so the secant lies above it on [lo, hi]: where the secant
    meets the budget, S is at most the budget, up to rounding, and
    :func:`_assemble` folds the rest into the last user. The step takes
    ``lo`` unless S(lo) < budget < S(hi) < inf: where S(lo) is the budget,
    S(hi) overflowed, or ``hi`` was clamped to the largest float and fits.
    It runs two walks of the shared recursion and borrows nothing from
    water-filling, so the two solvers stay independent.
    """
    s_lo = _equality_walk(thresholds, over_gain, floor=lo, keep=False)[1]
    s_hi = _equality_walk(thresholds, over_gain, floor=hi, keep=False)[1]
    if not s_lo < budget < s_hi < math.inf:
        return lo
    return min(lo + (hi - lo) * ((budget - s_lo) / (s_hi - s_lo)), hi)


def solve_bisection(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via bisection on the candidate minimum ``t``.

    Starts from the bracket ``l = min(thresholds)`` (feasible after phase 1)
    and ``u = max(budget / min(N_n/G_n), l) * (1 + 2**-50)`` (just past what a
    lone user gets from the whole budget, so u never fits; the largest float
    if that overflows) and runs exactly ceil(log2((u - l)/epsilon)) halvings:
    feasible midpoints raise ``l``, infeasible ones lower ``u``.
    ``theta_star`` is the certified feasible side ``l``. The powers sit at
    the common level of one secant step through S(l) and S(u)
    (:func:`_secant_level`), with the roundoff-level rest of the budget folded
    into the weakest user, so the budget comes out fully spent. A solve runs
    1 + iterations + 2 + 1 walks: the threshold check, the halvings, the
    secant's two ends and the powers.
    """
    return _bisection(*_check_phase2_inputs(scenario, budget, epsilon))


def _bisection(thresholds: list[float], over_gain: list[float], budget: float,
               epsilon: float, walk: tuple[list[float], float]) -> MaxMinSolution:
    """:func:`solve_bisection` on checked inputs (:func:`_check_phase2_inputs`).

    ``walk``, the walk at the thresholds, is counted and not reused: the
    halvings start from the bracket.
    """
    lo, hi = _bracket(thresholds, over_gain, budget)
    hi = min(hi, sys.float_info.max)
    width = hi - lo
    if width <= epsilon:
        iterations = 0
    elif width / epsilon < math.inf:
        iterations = math.ceil(math.log2(width / epsilon))
    else:  # the ratio overflows, its log does not
        iterations = math.ceil(math.log2(width) - math.log2(epsilon))
    for _ in range(iterations):
        t = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
        if _fits(thresholds, over_gain, budget, t):
            lo = t
        else:
            hi = t
    level = _secant_level(thresholds, over_gain, budget, lo, hi)
    return _assemble(thresholds, over_gain, budget, lo, level, iterations, 1 + iterations + 2,
                     "bisection")


def solve_waterfill(scenario: Scenario, budget: float,
                    epsilon: float = DEFAULT_EPSILON) -> MaxMinSolution:
    """Max-min SINR via water-filling: one Newton search for the water level.

    S(theta) is convex, piecewise polynomial with kinks at the distinct
    thresholds, and strictly increasing past the smallest one. One
    safeguarded Newton root (:func:`_newton_root`) searches the bracket from
    the smallest threshold, which fits, to a few floats past the lone-user
    bound (``_BRACKET_TOP``), which does not, across the kinks: ``theta_star``
    is the largest float with S(theta) <= P_s, so it does not depend on
    ``epsilon`` or on the search path. A budget with no slack and a lone user
    take the same path; a lone user's theta_star is the largest float with
    theta * N/G <= P_s, and the budget fold gives it the budget. ``iterations``
    reports how many threshold levels were fully flooded: the distinct
    thresholds <= theta_star, less one.
    """
    return _waterfill(*_check_phase2_inputs(scenario, budget, epsilon))


def _waterfill(thresholds: list[float], over_gain: list[float], budget: float,
               epsilon: float, walk: tuple[list[float], float]) -> MaxMinSolution:
    """:func:`solve_waterfill` on checked inputs (:func:`_check_phase2_inputs`);
    ``epsilon`` is unused, and ``walk`` starts the root."""
    lo, hi = _bracket(thresholds, over_gain, budget)
    theta, walks = _newton_root(thresholds, over_gain, budget, lo, hi, walk)
    # S is monotone in floating point, so a threshold fits exactly when it is <= theta.
    flooded = len({t for t in thresholds if t <= theta}) - 1
    return _assemble(thresholds, over_gain, budget, theta, theta, flooded, 1 + walks,
                     "waterfill")


def _waterfill_rows(threshold: float, costs: np.ndarray,
                    budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_waterfill` on every row of an (R, K) block whose users share a threshold.

    Row r holds one admitted set of k_r >= 1 users, right-aligned: their
    costs N_n/G_n, in gain order, in its last k_r columns and 0 in the
    columns before them, and a budget ``budgets[r]`` that affords its users
    at ``threshold``. Returns theta_star (R,) and the powers
    (R, K), 0 in the padded columns, each row equal to ``solve_waterfill`` on
    its users bit for bit. With one threshold t the only segment is [t, the
    scalar solvers' bracket top), where every user sits at theta, so S(theta)
    is a polynomial in closed form. Its root, found without a walk
    (:func:`_estimate_rows`), is walked once; one Newton step from that walk
    (:func:`_newton_rows`) and the last-fit search then run on all rows at
    once, every probe one :func:`_equality_rows` walk of the block with each
    user at the probe, which never lies below t, and end on the same
    canonical theta_star, the largest float with
    S(theta) <= budget, in about four walks a block, the powers' included.
    A padded user costs N/G = 0, so it walks to power 0.0 and leaves the
    total at 0.0: each row's walk is its dense walk bit for bit, total
    included, and one search and one budget fold serve rows of every count,
    one user included.
    """
    counts = np.count_nonzero(costs, axis=1)
    lo = np.full(len(budgets), threshold)
    with np.errstate(all="ignore"):  # the bound and S(theta) may overflow, as in the scalar root
        # The lone-user bound B/c_n of each row's cheapest user, past its padding.
        cheapest = np.min(costs, axis=1, initial=math.inf, where=costs > 0.0)
        hi = np.maximum(budgets / cheapest, lo) * _BRACKET_TOP
        lo, hi, theta = _newton_rows(costs, budgets, lo, hi, counts)
        theta = _last_fit_rows(costs, budgets, lo, hi, theta)
    powers, _, total = _equality_rows(theta, costs)
    # The budget closes on the weakest user against the walk's total, as in _assemble.
    last = powers[:, -1] + (budgets - total)
    powers[:, -1] = np.where(last < 0.0, 0.0, last)
    return theta, powers


def _newton_rows(over_gain, budgets, lo, hi, counts):
    """:func:`_newton_root`'s first step on every row, on one segment where every user is floored.

    Row r's ``counts[r]`` users sit in its last columns, after padding that
    costs nothing. One walk at :func:`_estimate_rows`, the root of S(theta)'s
    closed form, narrows each row's bracket, and one Newton step from that
    walk's total and slope takes an estimate a few floats off to within a
    float or two of theta*; a row whose slope is not finite and positive
    keeps the estimate. Returns the narrowed brackets and each row's theta,
    one float inside its bracket (an end is a float already probed), for
    :func:`_last_fit_rows`, which finishes from any start inside the bracket.
    """
    users = over_gain.shape[1]
    # Later users per user; 0 for padding, whose (1 + theta)**e could
    # overflow alone and turn its 0 power into nan.
    exponents = np.arange(users - 1, -1, -1.0)
    exponents = np.where(exponents < counts[:, None], exponents, 0.0)
    theta = _estimate_rows(over_gain, exponents, budgets, lo, hi)
    powers, _, total = _equality_rows(theta, over_gain)
    fit = total <= budgets
    lo = np.where(fit, theta, lo)
    hi = np.where(fit, hi, theta)
    half_ulp = 0.5 * np.spacing(budgets)
    # theta * S'(theta): user n's power times (1 + theta) per later user.
    slope = (powers * (1.0 + theta)[:, None] ** exponents).sum(axis=1)
    step = theta * np.minimum(np.expm1((np.log(budgets / total) + half_ulp / budgets)
                                       * (total / slope)),
                              (budgets - total + half_ulp) / slope)
    theta = np.where((0.0 < slope) & (slope < math.inf), theta + step, theta)
    return lo, hi, np.clip(theta, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _estimate_rows(over_gain, exponents, budgets, lo, hi) -> np.ndarray:
    """theta* of every row to within a few floats, from S(theta)'s closed form, walking nothing.

    With every user floored at theta, S(theta) = theta * sum_n c_n (1 + theta)**e_n,
    c_n = N_n/G_n and e_n the users after n in its row (c_n = 0 for padding).
    Each term is below S(theta*) = B, so theta* < (B/c_n)**(1/(e_n + 1)) for
    every user. Newton on log S against log theta, convex, starts from the
    least of these bounds and descends to the root without passing it; it
    stops once a step is below 1e-8 of theta, which leaves an error of about
    its square. The polynomial's rounding and the walk's differ, so the
    result is a start, not theta*; a row whose estimate is not inside
    (lo, hi), its polynomial having overflowed, starts at ``lo``, far from
    theta*, and is finished by the one Newton step and the last fit.
    """
    users = over_gain.shape[1]
    # Weights 1 and e_n of the two row sums below: a user in column j has
    # e_n = W - 1 - j, and a padded column's term is 0 whatever its weight.
    weights = np.stack([np.ones(users), np.arange(users - 1, -1, -1.0)], axis=1)
    # The bounds in logs, which do not overflow; a padded user's is inf.
    bound = np.min((np.log(budgets)[:, None] - np.log(over_gain)) / (exponents + 1.0), axis=1)
    theta = np.clip(np.exp(bound), lo, np.fmin(hi, sys.float_info.max))  # hi may be inf
    for _ in range(100):
        growth = 1.0 + theta
        # sum_n c_n (1 + theta)**e_n, and the same with each term times e_n.
        level, tilt = ((over_gain * growth[:, None] ** exponents) @ weights).T
        # d log S / d log theta = 1 + theta / (1 + theta) * tilt / level.
        step = theta * np.expm1(np.log(budgets / (theta * level))
                                / (1.0 + theta * tilt / (growth * level)))
        theta = theta + step
        if not (np.abs(step) > 1e-8 * theta).any():  # nan counts as done
            break
    return np.where((lo < theta) & (theta < hi), theta, lo)


def _last_fit_rows(over_gain, budgets, lo, hi, theta) -> np.ndarray:
    """:func:`_last_fit` masked per row, over int64 float bit patterns: the
    galloping rows double their strides in lockstep, so one stride serves them
    all. Every probe lies at or above the bracket's bottom, the rows'
    threshold, so each row walks at the probe."""

    def fits(probe, where, fit):
        level = np.where(where, probe, fit).view(np.float64)
        return where & (_equality_rows(level, over_gain)[2] <= budgets)

    fit, miss = lo.view(np.int64), hi.view(np.int64)
    start = np.minimum(np.maximum(theta.view(np.int64), fit), miss)
    probing = (fit < start) & (start < miss)
    if probing.any():
        ok = fits(start, probing, fit)
        fit, miss = np.where(ok, start, fit), np.where(probing & ~ok, start, miss)
    upward = start == fit
    stride = 1
    galloping = miss - fit > stride
    while galloping.any():
        probe = np.where(upward, fit + stride, miss - stride)
        ok = fits(probe, galloping, fit)
        fit, miss = np.where(ok, probe, fit), np.where(galloping & ~ok, probe, miss)
        galloping &= ok == upward
        stride = min(2 * stride, 2 ** 62)
        galloping &= miss - fit > stride
    while True:
        bisecting = miss - fit > 1
        if not bisecting.any():
            return fit.view(np.float64)
        mid = fit + (miss - fit) // 2
        ok = fits(mid, bisecting, fit)
        fit, miss = np.where(ok, mid, fit), np.where(bisecting & ~ok, mid, miss)
