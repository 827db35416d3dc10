"""Random scenario generation and the Monte-Carlo experiment drivers.

The channel model places users uniformly over a disk cell (radius drawn as
R*sqrt(u) so density is uniform in area) and forms gains as

    G = K * 10^(H/10) * D^(-alpha),

with lognormal shadowing H ~ N(0, sigma_db) and distances clipped below at
``min_distance`` to keep D^(-alpha) bounded. Every run is a pure function of
its seed: per-run seeds are derived from (master seed, experiment id, grid
indices, run index) through ``numpy.random.SeedSequence``, so results are
reproducible and independent of execution order or worker count.

The experiment drivers sweep a common targeted SINR over a grid of requesting
user counts (admission statistics, and optionally the phase-2 SINR uplift) or
produce a single per-user snapshot for heterogeneous targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .admission import admit
from .maxmin import DEFAULT_EPSILON, solve_waterfill
from .model import Scenario, power_budget, sort_users
from .pipeline import run_two_phase
from .units import db_to_linear, dbm_to_watts, linear_to_db

__all__ = [
    "ChannelModel",
    "ExperimentStats",
    "SnapshotRow",
    "channel_gain",
    "draw_scenario",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_seed",
]

_EXPERIMENT_IDS = {"fig2": 2, "fig3": 3, "fig4": 4}

#: Relative tolerance for the per-run primary-user interference audit.
AUDIT_RTOL = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Geometry and radio parameters for random scenario draws.

    ``num_pus`` has no sensible default: the secondary power budget depends
    strongly on how many primary users are drawn, so it must be chosen
    explicitly alongside ``num_sus``.
    """

    num_sus: int
    num_pus: int
    cell_radius: float = 500.0
    path_loss_exponent: float = 4.0
    shadowing_sigma_db: float = 6.0
    system_constant_k: float = 1e3
    min_distance: float = 1.0
    su_noise_dbm: float = -120.0
    pu_interference_limit_dbm: float = -90.0
    p_max_dbm: float = 20.0

    def __post_init__(self):
        if self.num_sus < 0 or self.num_pus < 0:
            raise ValueError("user counts must be non-negative")
        if not 0.0 < self.min_distance < self.cell_radius:
            raise ValueError("need 0 < min_distance < cell_radius")
        if self.shadowing_sigma_db < 0.0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if self.system_constant_k <= 0.0 or self.path_loss_exponent <= 0.0:
            raise ValueError("system_constant_k and path_loss_exponent must be positive")


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregates for one (targeted SINR, N) grid point.

    All users share the targeted SINR, so the mean targeted SINR equals
    ``target_sinr_db``. SINR means are taken over the dB values of the runs
    that admitted at least one user (``runs_with_admission``); they are None
    when no run did. ``audit_violations`` counts runs whose final powers broke
    a primary-user interference limit (beyond `AUDIT_RTOL`); it must be zero.
    """

    target_sinr_db: float
    n_requesting: int
    m_pus: int
    runs: int
    master_seed: int
    mean_admitted: float
    mean_min_achieved_sinr_db: float | None = None
    mean_all_achieved_sinr_db: float | None = None
    runs_with_admission: int | None = None
    audit_violations: int = 0


@dataclass(frozen=True)
class SnapshotRow:
    """One user of a heterogeneous-target snapshot (sorted by gain, best first).

    ``user_index`` is the position in the caller's original (pre-sort) order.
    ``achieved_db`` is None for users that were not admitted.
    """

    user_index: int
    gain: float
    target_db: float
    achieved_db: float | None
    admitted: bool


def channel_gain(model: ChannelModel, distance_m, shadow_db):
    """Linear gain K * 10^(H/10) * D^(-alpha) at a given distance and shadowing."""
    d = np.maximum(distance_m, model.min_distance)
    return model.system_constant_k * db_to_linear(shadow_db) * d ** (-model.path_loss_exponent)


def _disk_radii(rng: np.random.Generator, count: int, model: ChannelModel) -> np.ndarray:
    radii = model.cell_radius * np.sqrt(rng.random(count))
    return np.maximum(radii, model.min_distance)


def run_seed(master_seed: int, experiment: str | int, *indices: int) -> np.random.SeedSequence:
    """Deterministic, order-independent seed for one simulation run."""
    exp_id = _EXPERIMENT_IDS.get(experiment, experiment)
    return np.random.SeedSequence([int(master_seed), int(exp_id), *map(int, indices)])


def draw_scenario(model: ChannelModel, rng_seed, threshold_db=10.0) -> Scenario:
    """Draw one random Scenario; bit-for-bit deterministic for a given seed.

    ``threshold_db`` (scalar or per-user array, pre-sort order) sets the SINR
    targets; the channel model itself carries no target, since experiments
    sweep it. Draw order is fixed: SU radii, SU shadowing, PU radii, PU
    shadowing.
    """
    rng = np.random.default_rng(rng_seed)
    su_r = _disk_radii(rng, model.num_sus, model)
    su_shadow = rng.normal(0.0, model.shadowing_sigma_db, model.num_sus)
    pu_r = _disk_radii(rng, model.num_pus, model)
    pu_shadow = rng.normal(0.0, model.shadowing_sigma_db, model.num_pus)
    thresholds = np.broadcast_to(db_to_linear(threshold_db), (model.num_sus,))
    return sort_users(
        channel_gain(model, su_r, su_shadow),
        np.full(model.num_sus, dbm_to_watts(model.su_noise_dbm)),
        thresholds,
        pu_gains=channel_gain(model, pu_r, pu_shadow),
        pu_interference_limits=np.full(model.num_pus, dbm_to_watts(model.pu_interference_limit_dbm)),
        p_max=dbm_to_watts(model.p_max_dbm),
    )


def _audit_violates(scenario: Scenario, full_powers: np.ndarray) -> bool:
    if scenario.n_pus == 0:
        return False
    injected = full_powers.sum() * scenario.pu_gains
    return bool(np.any(injected > scenario.pu_interference_limits * (1.0 + AUDIT_RTOL)))


def _grid_point_stats(args) -> ExperimentStats:
    (experiment, model, target_db, target_index, n_index, n_requesting,
     runs, master_seed, epsilon) = args
    point_model = replace(model, num_sus=n_requesting)
    with_phase2 = experiment == "fig3"
    admitted_total = 0
    violations = 0
    min_db_sum = 0.0
    all_db_sum = 0.0
    admitted_runs = 0
    for run_index in range(runs):
        seed = run_seed(master_seed, experiment, target_index, n_index, run_index)
        scenario = draw_scenario(point_model, seed, target_db)
        budget = power_budget(scenario)
        result = admit(scenario, budget)
        admitted_total += result.admitted_count
        powers = result.full_powers()
        if with_phase2 and result.admitted_count >= 1:
            sub = scenario.prefix(result.admitted_count)
            solution = solve_waterfill(sub, budget, epsilon)
            powers[: result.admitted_count] = solution.powers
            achieved_db = linear_to_db(solution.achieved_sinr)
            min_db_sum += float(np.min(achieved_db))
            all_db_sum += float(np.mean(achieved_db))
            admitted_runs += 1
        if _audit_violates(scenario, powers):
            violations += 1
    return ExperimentStats(
        target_sinr_db=float(target_db),
        n_requesting=n_requesting,
        m_pus=model.num_pus,
        runs=runs,
        master_seed=int(master_seed),
        mean_admitted=admitted_total / runs,
        mean_min_achieved_sinr_db=(min_db_sum / admitted_runs) if with_phase2 and admitted_runs else None,
        mean_all_achieved_sinr_db=(all_db_sum / admitted_runs) if with_phase2 and admitted_runs else None,
        runs_with_admission=admitted_runs if with_phase2 else None,
        audit_violations=violations,
    )


def _sweep(experiment, model, targeted_sinr_grid_db, n_values, runs, master_seed,
           epsilon, n_jobs) -> list[ExperimentStats]:
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tasks = [
        (experiment, model, float(t_db), ti, ni, int(n), int(runs), int(master_seed), epsilon)
        for ti, t_db in enumerate(targeted_sinr_grid_db)
        for ni, n in enumerate(n_values)
    ]
    if n_jobs <= 1:
        return [_grid_point_stats(t) for t in tasks]
    # Grid points are independent; collecting with map() keeps the output
    # order (and therefore any downstream CSV) identical to the serial path.
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(_grid_point_stats, tasks))


def run_fig2(model: ChannelModel, targeted_sinr_grid_db, n_values, runs: int,
             master_seed: int, n_jobs: int = 1) -> list[ExperimentStats]:
    """Mean admitted-user count over a (targeted SINR, requesting N) grid."""
    return _sweep("fig2", model, targeted_sinr_grid_db, n_values, runs, master_seed,
                  DEFAULT_EPSILON, n_jobs)


def run_fig3(model: ChannelModel, targeted_sinr_grid_db, n_values, runs: int,
             master_seed: int, epsilon: float = DEFAULT_EPSILON,
             n_jobs: int = 1) -> list[ExperimentStats]:
    """Like :func:`run_fig2`, plus the phase-2 achieved SINR per grid point.

    Runs that admit nobody are excluded from the SINR means and counted
    separately via ``runs_with_admission``.
    """
    return _sweep("fig3", model, targeted_sinr_grid_db, n_values, runs, master_seed,
                  epsilon, n_jobs)


def run_fig4(model: ChannelModel, n: int, threshold_range_db: tuple[float, float],
             seed: int, epsilon: float = DEFAULT_EPSILON) -> list[SnapshotRow]:
    """Single-draw snapshot with per-user targets uniform in a dB range.

    Returns one row per requesting user in sorted (descending-gain) order:
    original index, gain, targeted and achieved SINR in dB, admission flag.
    Admitted users achieve at least their target; those lifted by phase 2 sit
    at the common optimal level.
    """
    low, high = threshold_range_db
    if high < low:
        raise ValueError("threshold_range_db must be (low, high) with low <= high")
    target_rng = np.random.default_rng(run_seed(seed, "fig4", 0))
    target_db = target_rng.uniform(low, high, int(n))
    point_model = replace(model, num_sus=int(n))
    scenario = draw_scenario(point_model, run_seed(seed, "fig4", 1), target_db)
    outcome = run_two_phase(scenario, solver="waterfill", epsilon=epsilon)
    sorted_targets_db = linear_to_db(scenario.su_thresholds)
    rows = []
    for i in range(scenario.n_sus):
        admitted = i < outcome.admission.admitted_count
        rows.append(SnapshotRow(
            user_index=int(scenario.order[i]),
            gain=float(scenario.su_gains[i]),
            target_db=float(sorted_targets_db[i]),
            achieved_db=float(linear_to_db(outcome.maxmin.achieved_sinr[i])) if admitted else None,
            admitted=admitted,
        ))
    return rows
