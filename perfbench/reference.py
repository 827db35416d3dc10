"""Independent numpy reference for the two-phase allocator.

Written apart from the ``noma_crn`` package: it imports nothing from it and
draws from its own random generator. Arrays are (rows, users); one row is
one cell with its users sorted by descending gain. ``active`` marks the
users of a row that take part when rows hold different user counts.

Run ``python3 perfbench/reference.py`` to check it on hand-worked
instances; the benchmark runs the same checks before it trusts it.
"""

from __future__ import annotations

import numpy as np

#: Channel model of the package's documentation (ChannelModel defaults).
CELL_RADIUS_M = 500.0
PATH_LOSS_EXPONENT = 4.0
SHADOWING_SIGMA_DB = 6.0
SYSTEM_CONSTANT_K = 1e3
MIN_DISTANCE_M = 1.0
SU_NOISE_DBM = -120.0
PU_LIMIT_DBM = -90.0
P_MAX_DBM = 20.0

#: Halvings of the root bracket. The bracket spans at most ~40 decades, so
#: 100 geometric halvings shrink it far below one float ulp.
_ROOT_HALVINGS = 100


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def _gains(rng: np.random.Generator, rows: int, count: int) -> np.ndarray:
    # Disk-uniform radius R*sqrt(u) clipped at the minimum distance,
    # lognormal shadowing, then K * 10^(H/10) * d^(-alpha).
    radii = np.maximum(CELL_RADIUS_M * np.sqrt(rng.random((rows, count))), MIN_DISTANCE_M)
    shadow_db = rng.normal(0.0, SHADOWING_SIGMA_DB, (rows, count))
    return SYSTEM_CONSTANT_K * 10.0 ** (shadow_db / 10.0) * radii ** (-PATH_LOSS_EXPONENT)


def draw_cells(rng: np.random.Generator, rows: int, n_sus: int, n_pus: int):
    """Random cells: (noise/gain sorted ascending, budget per row)."""
    su_gains = -np.sort(-_gains(rng, rows, n_sus), axis=1)
    budgets = np.full(rows, float(dbm_to_watts(P_MAX_DBM)))
    if n_pus:
        pu_gains = _gains(rng, rows, n_pus)
        budgets = np.minimum(budgets, np.min(dbm_to_watts(PU_LIMIT_DBM) / pu_gains, axis=1))
    return dbm_to_watts(SU_NOISE_DBM) / su_gains, budgets


def prefix_power(thresholds, over_gain) -> np.ndarray:
    """A_k, the power to hold users 1..k at their thresholds, for every k.

    The greedy-prefix recursion A_k = A_{k-1} (1 + Gamma_k) + Gamma_k N_k/G_k
    with A_0 = 0, evaluated down the columns for all rows at once.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    over_gain = np.asarray(over_gain, dtype=float)
    out = np.empty_like(over_gain)
    total = np.zeros(over_gain.shape[0])
    for n in range(over_gain.shape[1]):
        total = total * (1.0 + thresholds[:, n]) + thresholds[:, n] * over_gain[:, n]
        out[:, n] = total
    return out


def admitted_count(thresholds, over_gain, budgets) -> np.ndarray:
    """Longest prefix whose requirement fits the budget, per row."""
    need = prefix_power(thresholds, over_gain)
    return np.sum(need <= np.asarray(budgets, dtype=float)[:, None], axis=1)


def total_power(theta, thresholds, over_gain, active) -> np.ndarray:
    """S(theta): power to hold each active user at max(theta, threshold)."""
    total = np.zeros(over_gain.shape[0])
    for n in range(over_gain.shape[1]):
        lam = np.maximum(theta, thresholds[:, n])
        total = np.where(active[:, n], total * (1.0 + lam) + lam * over_gain[:, n], total)
    return total


def maxmin_root(thresholds, over_gain, active, budgets) -> np.ndarray:
    """theta with S(theta) = budget, per row (rows need >= 1 active user).

    S is flat below the smallest threshold and increasing above it, and no
    user beats getting the whole budget alone, so the root lies in
    [min threshold, max budget * G/N]. The bracket is halved geometrically;
    the feasible side is returned.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    over_gain = np.asarray(over_gain, dtype=float)
    active = np.asarray(active, dtype=bool)
    budgets = np.asarray(budgets, dtype=float)
    lo = np.min(np.where(active, thresholds, np.inf), axis=1)
    hi = np.maximum(np.max(np.where(active, budgets[:, None] / over_gain, 0.0), axis=1), lo)
    for _ in range(_ROOT_HALVINGS):
        mid = np.sqrt(lo * hi)
        fits = total_power(mid, thresholds, over_gain, active) <= budgets
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return lo


def sweep_point(rng: np.random.Generator, rows: int, n_sus: int, n_pus: int,
                target_db: float, phase2: bool) -> dict:
    """Monte-Carlo estimate for one sweep grid point: every user at target_db.

    Returns the mean and variance of the admitted count and, with phase 2,
    of the max-min SINR in dB over the rows that admitted anyone.
    """
    over_gain, budgets = draw_cells(rng, rows, n_sus, n_pus)
    thresholds = np.full_like(over_gain, 10.0 ** (target_db / 10.0))
    count = admitted_count(thresholds, over_gain, budgets)
    out = {"rows": rows, "admitted_mean": float(np.mean(count)),
           "admitted_var": float(np.var(count, ddof=1))}
    if phase2:
        keep = count >= 1
        active = np.arange(n_sus)[None, :] < count[keep][:, None]
        theta = maxmin_root(thresholds[keep], over_gain[keep], active, budgets[keep])
        theta_db = 10.0 * np.log10(theta)
        out.update(rows_with_admission=int(np.sum(keep)),
                   min_sinr_db_mean=float(np.mean(theta_db)),
                   min_sinr_db_var=float(np.var(theta_db, ddof=1)))
    return out


def self_check() -> list[str]:
    """Check the reference on hand-worked instances; return the failures."""
    failures = []

    def expect(label, got, want, rtol=1e-12):
        if not np.allclose(got, want, rtol=rtol, atol=0.0):
            failures.append(f"reference {label}: got {got!r}, want {want!r}")

    # Thresholds 1 and N/G = 1: A = 1, 1*2 + 1 = 3, 3*2 + 1 = 7.
    ones = np.ones((3, 3))
    expect("prefix power", prefix_power(ones, ones)[0], [1.0, 3.0, 7.0])
    expect("admitted count", admitted_count(ones, ones, [2.99, 3.0, 7.0]), [1, 2, 3])

    # One user: the whole budget, theta = B G / N.
    gain, noise, budget = 3e-7, 1e-15, 0.05
    theta = maxmin_root([[2.0]], [[noise / gain]], [[True]], [budget])
    expect("one-user root", theta, [budget * gain / noise])

    # Two users above their thresholds: S = theta c1 + theta (theta c1 + c2)
    # = B, so theta = (-(c1 + c2) + sqrt((c1 + c2)^2 + 4 c1 B)) / (2 c1).
    c1, c2, budget = 2e-9, 5e-8, 1e-3
    closed = (-(c1 + c2) + np.sqrt((c1 + c2) ** 2 + 4.0 * c1 * budget)) / (2.0 * c1)
    theta = maxmin_root([[1.0, 1.0]], [[c1, c2]], [[True, True]], [budget])
    expect("two-user root", theta, [closed], rtol=1e-10)

    # A padded row: its third user is inactive and must not count.
    theta = maxmin_root([[1.0, 1.0, 1.0]], [[c1, c2, 1.0]], [[True, True, False]], [budget])
    expect("masked root", theta, [closed], rtol=1e-10)
    return failures


if __name__ == "__main__":
    problems = self_check()
    for line in problems:
        print(line)
    print("reference self-check:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
