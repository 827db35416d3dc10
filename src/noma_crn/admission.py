"""Phase 1: greedy sequential power allocation maximizing the admitted SU count.

Users are visited in descending-gain order. Each one is granted exactly the
power that pins its SINR to its threshold given what was already allocated,

    P_n = Gamma_n * sum_{j<n} P_j + Gamma_n * N_n / G_n,

as long as that fits in the remaining budget; the first user that does not fit
ends the pass and every later user receives zero power. This is one budgeted
walk of the equality allocation in :mod:`noma_crn.model`, the same walk that
prices phase 2. For identical thresholds and a common noise level this prefix
rule admits the maximum possible number of users (see :mod:`noma_crn.oracle`
for the exhaustive cross-check); with unequal thresholds it is a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario, _check_budget, _equality_walk

__all__ = ["AdmissionResult", "admit", "required_prefix_power"]


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of the greedy admission pass.

    ``powers`` holds the admitted prefix only (length ``admitted_count``, sorted
    order); rejected users implicitly get zero. ``full_powers()`` expands to all
    ``n_users`` for interference audits and phase-2 hand-off.
    """

    admitted_count: int
    powers: np.ndarray
    remaining_power: float
    budget: float
    n_users: int

    def full_powers(self) -> np.ndarray:
        out = np.zeros(self.n_users)
        out[: self.admitted_count] = self.powers
        return out


def admit(scenario: Scenario, budget: float) -> AdmissionResult:
    """Run the greedy admission pass under a total power budget (watts).

    Returns the admitted prefix with its equality-allocation powers and the
    unspent budget. A first user that alone exceeds the budget yields an empty
    admission (count 0, everything remaining). Admission is inclusive on the
    boundary: a user is admitted when ``allocated + required`` does not exceed
    the budget. That is the sum phase 2 checks the budget against, so an
    admitted set is always feasible there and ``remaining_power`` is never
    negative.
    """
    return _admit(scenario.su_thresholds.tolist(), scenario.noise_over_gain.tolist(), budget)[0]


def _admit(thresholds: list[float], over_gain: list[float],
           budget: float) -> tuple[AdmissionResult, tuple[list[float], float]]:
    """:func:`admit` on the walk's float lists; also returns the walk itself.

    The walk's powers and total are those of the unbudgeted walk over the
    admitted prefix bit for bit: every admitted user is walked by the same
    operations, and the budget only stops the walk.
    """
    _check_budget(budget)
    walk = powers, allocated = _equality_walk(thresholds, over_gain, budget)
    result = AdmissionResult(
        admitted_count=len(powers),
        powers=np.asarray(powers, dtype=float),
        remaining_power=budget - allocated,
        budget=float(budget),
        n_users=len(thresholds),
    )
    return result, walk


def required_prefix_power(scenario: Scenario, k: int) -> float:
    """Total power needed to admit the first k users at exact-threshold SINR.

    Unrolls A_k = A_{k-1} * (1 + Gamma_k) + Gamma_k * N_k / G_k with A_0 = 0.
    """
    if not 1 <= k <= scenario.n_sus:
        raise ValueError(f"k must be in 1..{scenario.n_sus}, got {k}")
    _, total = _equality_walk(scenario.su_thresholds[:k].tolist(),
                              scenario.noise_over_gain[:k].tolist())
    return total
