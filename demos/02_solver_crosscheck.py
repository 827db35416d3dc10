#!/usr/bin/env python3
"""Cross-check the two max-min solvers against each other and the grid oracle.

The bisection solver certifies a feasible minimum-SINR level to within its
tolerance; the water-filling solver finds the exact level by one Newton
search over the whole threshold range. On top of that, for two- and
three-user instances an exhaustive simplex grid search bounds the true
optimum from below. All three must line up.
"""

import numpy as np

from noma_crn import (
    GridSpec,
    Scenario,
    min_power_for_targets,
    oracle_max_min_sinr,
    solve_bisection,
    solve_waterfill,
)

rng = np.random.default_rng(7)
EPS = 1e-6

print(f"{'users':>5} {'theta_bisect':>13} {'theta_wfill':>13} {'|gap|':>10} "
      f"{'grid_value':>11} {'grid_res':>10} ok")

checked = 0
while checked < 12:
    n = int(rng.integers(2, 4))
    gains = np.sort(10 ** rng.uniform(-6, -5, n))[::-1]
    noise = 10 ** rng.uniform(-15, -14.5, n)
    thresholds = 10 ** (rng.uniform(0, 15, n) / 10)
    scenario = Scenario(gains, noise, thresholds, [], [], 1.0)
    required, _ = min_power_for_targets(scenario, scenario.su_thresholds)
    budget = required * 10 ** rng.uniform(0.7, 1.3)

    b = solve_bisection(scenario, budget, EPS)
    w = solve_waterfill(scenario, budget, EPS)
    grid = GridSpec(1001 if n == 2 else 151, budget)
    search = oracle_max_min_sinr(scenario, budget, grid)
    if search.value is None:
        continue
    gap = abs(b.theta_star - w.theta_star)
    ok = gap <= 2 * EPS and 0 <= w.theta_star - search.value <= search.resolution
    print(f"{n:>5} {b.theta_star:>13.6f} {w.theta_star:>13.6f} {gap:>10.2e} "
          f"{search.value:>11.6f} {search.resolution:>10.2e} {'yes' if ok else 'NO'}")
    checked += 1

print("\nbisection stops once its bracket is narrower than eps, so its level")
print("sits at most eps below the water-filling one; the grid value can sit")
print("below both by at most the grid resolution.")
