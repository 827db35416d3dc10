"""End-to-end allocation: budget, admission, then max-min redistribution.

One pass over one set of inputs. The thresholds and N_n/G_n are converted to
the walk's float lists once. Admission's budgeted walk over them stops at the
first user that does not fit; the admitted prefix of k users reached the end
of its walk under the budget, so that walk is phase 2's walk at the
thresholds bit for bit, and phase 2 runs on the lists' first k entries with
no restricted :class:`~noma_crn.model.Scenario`. Every result equals the
composed public stages (``power_budget``, ``admit``, ``solve_*`` on
``scenario.prefix(k)``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admission import AdmissionResult, _admit
from .maxmin import (DEFAULT_EPSILON, MaxMinSolution, _bisection, _check_epsilon,
                     _sinr_upper_bound, _waterfill)
from .model import Scenario, power_budget

__all__ = ["TwoPhaseResult", "run_two_phase"]

#: The phase-2 cores by solver name; each takes checked inputs
#: (``maxmin._check_phase2_inputs``).
_SOLVERS = {"bisection": _bisection, "waterfill": _waterfill}


@dataclass(frozen=True)
class TwoPhaseResult:
    """Budget, admission outcome and (when anyone was admitted) the phase-2 solution."""

    budget: float
    admission: AdmissionResult
    maxmin: MaxMinSolution | None


def run_two_phase(scenario: Scenario, *, solver: str = "waterfill",
                  epsilon: float = DEFAULT_EPSILON) -> TwoPhaseResult:
    """Derive the budget, admit greedily, then lift the admitted users' SINR.

    The solver name and ``epsilon`` are checked first, whether or not anyone
    is admitted. ``maxmin.evaluations`` counts admission's walk as the walk
    at the thresholds, which the solve does not repeat.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"solver must be one of {sorted(_SOLVERS)}, got {solver!r}")
    _check_epsilon(epsilon)
    budget = power_budget(scenario)
    thresholds = scenario.su_thresholds.tolist()
    over_gain = scenario.noise_over_gain.tolist()
    admission, walk = _admit(thresholds, over_gain, budget)
    k = admission.admitted_count
    solution = None
    if k >= 1:
        bound = _sinr_upper_bound(scenario.su_gains[:k], scenario.su_noise[:k], budget)
        solution = _SOLVERS[solver](thresholds[:k], over_gain[:k], budget, bound, epsilon, walk)
    return TwoPhaseResult(budget=budget, admission=admission, maxmin=solution)
