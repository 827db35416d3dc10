#!/usr/bin/env python3
"""Walks per phase-2 solve: water-filling against the paper's bisection.

The paper claims its second phase-2 algorithm "significantly reduces the
complexity in contrast with the bisection method". Every solve reports the
walks of the equality recursion S(theta) it ran as
``MaxMinSolution.evaluations``; each walk is O(k) for k admitted users, so
walks per solve compare the two algorithms directly. Cells are seeded draws
of the default channel model with no primary users and per-user thresholds
uniform in 0-10 dB; bisection runs at its default tolerance.
"""

import numpy as np

from noma_crn import ChannelModel, draw_scenario, run_two_phase

DRAWS = 200
USER_COUNTS = (2, 5, 10, 20, 40, 80)

rng = np.random.default_rng(6)
rows = {"admitted": [], "water-filling": [], "bisection": []}
for n in USER_COUNTS:
    model = ChannelModel(num_sus=n, num_pus=0)
    admitted, walks = [], {"waterfill": [], "bisection": []}
    for i in range(DRAWS):
        scenario = draw_scenario(model, np.random.SeedSequence([6, n, i]),
                                 rng.uniform(0.0, 10.0, n))
        for solver, counts in walks.items():
            result = run_two_phase(scenario, solver=solver)
            if result.maxmin is not None:
                counts.append(result.maxmin.evaluations)
        admitted.append(result.admission.admitted_count)  # the same for both solvers
    rows["admitted"].append(np.mean(admitted))
    rows["water-filling"].append(np.mean(walks["waterfill"]))
    rows["bisection"].append(np.mean(walks["bisection"]))

print(f"mean S(theta) walks per solve over {DRAWS} cells per N (0 PUs, thresholds 0-10 dB)\n")
print(f"{'N':<14}" + "".join(f"{n:>7}" for n in USER_COUNTS))
for name, values in rows.items():
    print(f"{name:<14}" + "".join(f"{v:>7.1f}" for v in values))

ratio = np.array(rows["bisection"]) / np.array(rows["water-filling"])
print(f"\nbisection runs {ratio.min():.1f}-{ratio.max():.1f}x the walks of water-filling")
assert (ratio > 1.0).all()
