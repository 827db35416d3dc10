"""Checks of the package's outputs against the method's properties and the
independent reference in ``reference.py``.

Every function returns a list of failure messages; an empty list passes.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

import reference

#: A pooled sweep mean may differ from the reference's own Monte-Carlo mean by
#: this many standard errors of the difference. At 6 sigma a false alarm is a
#: ~2e-9 event per comparison, and a shift of one admitted user or of the
#: phase-2 uplift is still tens of sigma away.
STAT_SIGMAS = 6.0
#: Round-off allowance for SINRs in dB that must be equal or ordered.
DB_ROUNDOFF = 1e-9
#: Relative round-off allowance for linear SINRs, powers and budgets.
REL_ROUNDOFF = 1e-9


class PointTally:
    """Running sums over every operation of one sweep grid point."""

    def __init__(self, target_db: float, n_requesting: int):
        self.target_db = target_db
        self.n_requesting = n_requesting
        self.runs = 0
        self.admitted = 0.0
        self.runs_with_admission = 0
        self.min_sinr_db = 0.0

    def add(self, stats) -> None:
        self.runs += stats.runs
        self.admitted += stats.mean_admitted * stats.runs
        if stats.runs_with_admission:
            self.runs_with_admission += stats.runs_with_admission
            self.min_sinr_db += stats.mean_min_achieved_sinr_db * stats.runs_with_admission


def check_sweep_stats(stats, target_db: float, n_requesting: int, runs: int,
                      phase2: bool) -> list[str]:
    """Properties one grid point's ExperimentStats must have."""
    where = f"grid point {target_db:g} dB, N={n_requesting}"
    failures = []
    if (stats.target_sinr_db, stats.n_requesting, stats.runs) != (target_db, n_requesting, runs):
        failures.append(f"{where}: stats describe another grid point: {stats}")
    if stats.audit_violations != 0:
        failures.append(f"{where}: {stats.audit_violations} PU audit violations")
    if not 0.0 <= stats.mean_admitted <= n_requesting:
        failures.append(f"{where}: mean_admitted {stats.mean_admitted} outside [0, {n_requesting}]")
    if not phase2:
        if stats.mean_min_achieved_sinr_db is not None:
            failures.append(f"{where}: SINR reported by a sweep without phase 2")
        return failures
    rwa = stats.runs_with_admission
    if rwa is None or not 0 <= rwa <= runs:
        return failures + [f"{where}: runs_with_admission {rwa!r} outside [0, {runs}]"]
    # A run that admits anyone admits 1..N users, so rwa bounds the total.
    admitted_total = round(stats.mean_admitted * runs)
    if not rwa <= admitted_total <= rwa * n_requesting:
        failures.append(f"{where}: {rwa} runs with admission but {admitted_total} users admitted")
    if rwa == 0:
        return failures
    low, mean = stats.mean_min_achieved_sinr_db, stats.mean_all_achieved_sinr_db
    if low is None or mean is None:
        return failures + [f"{where}: no SINR means although {rwa} runs admitted users"]
    if low < target_db - DB_ROUNDOFF:
        failures.append(f"{where}: mean minimum SINR {low} dB below the target")
    # Every user shares the target, so phase 2 lifts all of them to theta*.
    if abs(mean - low) > DB_ROUNDOFF:
        failures.append(f"{where}: mean SINR {mean} dB differs from mean minimum {low} dB")
    return failures


def _within_sigmas(label: str, got: float, n_got: int, ref_mean: float, ref_var: float,
                   n_ref: int) -> list[str]:
    # The package's per-run spread is not reported, so the reference's spread
    # stands in for both samples; the floor keeps a grid point whose every
    # reference run agreed from demanding exact equality.
    var = max(ref_var, 1.0 / n_ref)
    sigma = math.sqrt(var * (1.0 / n_got + 1.0 / n_ref))
    if abs(got - ref_mean) > STAT_SIGMAS * sigma:
        return [f"{label}: {got:.6g} vs reference {ref_mean:.6g} "
                f"({abs(got - ref_mean) / sigma:.1f} standard errors, n={n_got}/{n_ref})"]
    return []


def check_sweep_against_reference(tally: PointTally, n_pus: int, phase2: bool,
                                  rng: np.random.Generator, rows: int) -> tuple[list[str], dict]:
    """Pooled means of one grid point against a fresh reference estimate."""
    ref = reference.sweep_point(rng, rows, tally.n_requesting, n_pus, tally.target_db, phase2)
    where = f"grid point {tally.target_db:g} dB, N={tally.n_requesting}"
    failures = _within_sigmas(f"{where} mean admitted", tally.admitted / tally.runs, tally.runs,
                              ref["admitted_mean"], ref["admitted_var"], rows)
    if phase2 and tally.runs_with_admission and ref["rows_with_admission"] > 1:
        failures += _within_sigmas(
            f"{where} mean minimum SINR dB", tally.min_sinr_db / tally.runs_with_admission,
            tally.runs_with_admission, ref["min_sinr_db_mean"], ref["min_sinr_db_var"],
            ref["rows_with_admission"])
    return failures, ref


def _padded(arrays, fill: float) -> np.ndarray:
    out = np.full((len(arrays), max(len(a) for a in arrays)), fill)
    for row, values in zip(out, arrays):
        row[: len(values)] = values
    return out


def check_allocations(scenarios, results, epsilon: float) -> list[str]:
    """Check run_two_phase outputs: ``results[i]`` maps solver -> result."""
    budgets = np.array([
        min(float(np.min(s.pu_interference_limits / s.pu_gains)), s.p_max) if s.n_pus else s.p_max
        for s in scenarios])
    thresholds = _padded([s.su_thresholds for s in scenarios], 1.0)
    # An infinite cost keeps padding out of every prefix.
    over_gain = _padded([s.su_noise / s.su_gains for s in scenarios], np.inf)
    counts = reference.admitted_count(thresholds, over_gain, budgets)
    rows = np.flatnonzero(counts >= 1)
    active = np.arange(thresholds.shape[1])[None, :] < counts[rows][:, None]
    theta_ref = np.full(len(scenarios), np.nan)
    theta_ref[rows] = reference.maxmin_root(thresholds[rows], np.where(active, over_gain[rows], 1.0),
                                            active, budgets[rows])
    failures = []
    for i, (scenario, by_solver) in enumerate(zip(scenarios, results)):
        for solver, result in by_solver.items():
            where = f"scenario {i} ({scenario.n_sus} SUs, {scenario.n_pus} PUs) {solver}"
            failures += [f"{where}: {msg}" for msg in _check_one(
                scenario, result, float(budgets[i]), int(counts[i]), float(theta_ref[i]), epsilon)]
        thetas = [r.maxmin.theta_star for r in by_solver.values() if r.maxmin is not None]
        if len(thetas) == 2 and abs(thetas[0] - thetas[1]) > _theta_tol(thetas[0], epsilon):
            failures.append(f"scenario {i}: solvers disagree on theta*: {thetas}")
    return failures


def _theta_tol(theta: float, epsilon: float) -> float:
    # 2 epsilon, plus float resolution where theta* is so large (a lone user
    # with the whole budget reaches ~1e12) that one ulp exceeds epsilon.
    return 2.0 * epsilon + 1e-12 * abs(theta)


def _check_one(scenario, result, budget: float, count: int, theta_ref: float,
               epsilon: float) -> list[str]:
    failures = []
    if not math.isclose(result.budget, budget, rel_tol=1e-12):
        failures.append(f"budget {result.budget!r} W, reference {budget!r} W")
    admission = result.admission
    if admission.admitted_count != count:
        return failures + [f"admitted {admission.admitted_count}, longest fitting prefix {count}"]
    if np.any(admission.powers < 0.0) or admission.powers.sum() > budget * (1.0 + REL_ROUNDOFF):
        failures.append("phase-1 powers negative or over budget")
    if count == 0:
        if result.maxmin is not None:
            failures.append("phase-2 solution for an empty admitted set")
        return failures
    solution = result.maxmin
    if solution is None:
        return failures + ["no phase-2 solution"]
    powers = np.asarray(solution.powers, dtype=float)
    if powers.shape != (count,) or np.any(powers < 0.0):
        return failures + [f"powers {powers} not {count} non-negative values"]
    if abs(powers.sum() - budget) > 1e-12 * budget:
        failures.append(f"powers sum to {float(powers.sum())!r} W, budget {budget!r} W")
    gains = scenario.su_gains[:count]
    prior = np.cumsum(powers) - powers
    sinr = powers * gains / (prior * gains + scenario.su_noise[:count])
    thresholds = scenario.su_thresholds[:count]
    if np.any(sinr < thresholds * (1.0 - REL_ROUNDOFF)):
        failures.append("an achieved SINR is below its threshold")
    expected = np.maximum(solution.theta_star, thresholds)
    if np.any(np.abs(sinr - expected) > 2.0 * epsilon + REL_ROUNDOFF * expected):
        failures.append("achieved SINRs differ from max(theta*, threshold)")
    if abs(solution.theta_star - theta_ref) > _theta_tol(theta_ref, epsilon):
        failures.append(f"theta* {solution.theta_star!r}, reference root {theta_ref!r}")
    injected = powers.sum() * scenario.pu_gains
    if np.any(injected > scenario.pu_interference_limits * (1.0 + REL_ROUNDOFF)):
        failures.append("a PU receives more than its interference limit")
    return failures
