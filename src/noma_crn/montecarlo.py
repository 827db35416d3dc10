"""Random scenario generation and the Monte-Carlo experiment drivers.

The channel model places users uniformly over a disk cell (radius drawn as
R*sqrt(u) so density is uniform in area) and forms gains as

    G = K * 10^(H/10) * D^(-alpha),

with lognormal shadowing H ~ N(0, sigma_db) and distances clipped below at
``min_distance`` to keep D^(-alpha) bounded. Every run is a pure function of
its seed: per-run seeds are derived from (master seed, experiment id, grid
indices, run index) through ``numpy.random.SeedSequence``. The sweeps hash a
chunk's run seeds together: the pool after a grid point's four integers is
shared by all its runs, so each run's PCG64 seed words take a few array
operations over the chunk, bit for bit the words of its own SeedSequence.

A grid point's runs are solved together: each run draws into its own row of
(runs, N) arrays, and gains, sorting, checks, budgets, admission and the PU
audit then run once per block of rows, in the same floating-point operations
as :func:`draw_scenario`, :func:`~noma_crn.model.power_budget` and
:func:`~noma_crn.admission.admit` on one run. Phase 2 solves the admitting
rows together too, as one block as wide as the largest admitted count, each
row's users right-aligned after zero-cost padding and equal to
:func:`~noma_crn.maxmin.solve_waterfill` on that run bit for bit, and the
SINR means are summed run by run. Results are therefore reproducible
and do not depend on the block size, execution order or worker count.

The experiment drivers sweep a common targeted SINR over a grid of requesting
user counts (admission statistics, and optionally the phase-2 SINR uplift) or
produce a single per-user snapshot for heterogeneous targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .maxmin import _waterfill_rows
from .model import (Scenario, _budgets, _check_budget, _equality_rows, _positive_rows, _sinr,
                    power_budget, sort_users)
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

#: Runs drawn and solved together as one block of (runs, N) rows. It bounds
#: the kernel's memory whatever the run count; results do not depend on it.
_CHUNK_RUNS = 1024


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


def _disk_radii(model: ChannelModel, uniforms) -> np.ndarray:
    return np.maximum(model.cell_radius * np.sqrt(uniforms), model.min_distance)


def _draw_rows(model: ChannelModel, rngs, rows: int):
    """Draw ``rows`` runs, one from each generator of ``rngs`` into its own row,
    in a fixed order: SU radii, SU shadowing, PU radii, PU shadowing (radii as
    the uniforms they come from).

    The shadowing is drawn standard normal and scaled by sigma once per block:
    ``normal(0, sigma)`` is ``0 + sigma * z``, which differs only in the sign
    of a zero, and ``db_to_linear`` maps both zeros to 1. A draw of no PUs
    consumes nothing, so it is skipped.
    """
    n, m = model.num_sus, model.num_pus
    su_u, su_shadow = np.empty((rows, n)), np.empty((rows, n))
    pu_u, pu_shadow = np.empty((rows, m)), np.empty((rows, m))
    for rng, row in zip(rngs, range(rows)):
        rng.random(out=su_u[row])
        rng.standard_normal(out=su_shadow[row])
        if m:
            rng.random(out=pu_u[row])
            rng.standard_normal(out=pu_shadow[row])
    su_shadow *= model.shadowing_sigma_db
    pu_shadow *= model.shadowing_sigma_db
    return su_u, su_shadow, pu_u, pu_shadow


def run_seed(master_seed: int, experiment: str | int, *indices: int) -> np.random.SeedSequence:
    """Deterministic, order-independent seed for one simulation run."""
    exp_id = _EXPERIMENT_IDS.get(experiment, experiment)
    return np.random.SeedSequence([int(master_seed), int(exp_id), *map(int, indices)])


# SeedSequence's hash (numpy.random.bit_generator; its output is stable across
# numpy versions), with numpy's names for the constants. Entropy hashing runs
# the hash constant INIT_A * MULT_A**i, and generate_state runs
# INIT_B * MULT_B**i, each one step per word hashed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hash steps from step ``first``
    on, and after the last one."""
    return np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF
                     for i in range(first, first + count + 1)], dtype=np.uint32)


#: generate_state(4, np.uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each word, the i-th at hash constants ``consts[i:i + 2]``."""
    hashed = (words ^ consts[:-1]) * consts[1:]
    return hashed ^ (hashed >> 16)


def _mix_word(pool: np.ndarray, words: np.ndarray, step: int) -> np.ndarray:
    """Each row's pool after SeedSequence mixes in that row's entropy word, the
    hash constant at ``step`` (rows of a uint32 (R, 4) pool, words (R,))."""
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(
        words[:, None], _hash_consts(_INIT_A, _MULT_A, step, pool.shape[1]))
    return mixed ^ (mixed >> 16)


def _run_seed_words(prefix: np.random.SeedSequence, runs) -> np.ndarray:
    """``SeedSequence([*prefix.entropy, run]).generate_state(4, np.uint64)``
    for each run index in ``runs`` (below 2**64), as rows of an (R, 4) array.

    ``prefix`` is a grid point's ``run_seed(master, experiment, ti, ni)``.
    SeedSequence hashes its first four 32-bit entropy words into a pool of
    four and mixes them together, then mixes every later word into each pool
    word, advancing its hash constant one step per hash. A run index comes
    after the prefix's four or more words, so every run starts from the
    prefix's pool at the step four times the prefix's word count, and mixes
    in its own one word, or two from 2**32 on.
    """
    runs = np.asarray(runs, dtype=np.uint64)
    step = 4 * sum(max(1, -(-int(v).bit_length() // 32)) for v in prefix.entropy)
    pool = _mix_word(np.broadcast_to(prefix.pool, (len(runs), 4)),
                     (runs & 0xFFFFFFFF).astype(np.uint32), step)
    high = (runs >> 32).astype(np.uint32)
    two = np.flatnonzero(high)
    if two.size:
        pool[two] = _mix_word(pool[two], high[two], step + 4)
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTS)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """One run's PCG64 seed words, as its SeedSequence generates them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly these: four uint64 words.
        return self.words


def draw_scenario(model: ChannelModel, rng_seed, threshold_db=10.0) -> Scenario:
    """Draw one random Scenario; bit-for-bit deterministic for a given seed.

    ``threshold_db`` (scalar or per-user array, pre-sort order) sets the SINR
    targets; the channel model itself carries no target, since experiments
    sweep it. The draws are the one-row case of ``_draw_rows``.
    """
    su_u, su_shadow, pu_u, pu_shadow = (
        draws[0] for draws in _draw_rows(model, [np.random.default_rng(rng_seed)], 1))
    thresholds = np.broadcast_to(db_to_linear(threshold_db), (model.num_sus,))
    return sort_users(
        channel_gain(model, _disk_radii(model, su_u), su_shadow),
        np.full(model.num_sus, dbm_to_watts(model.su_noise_dbm)),
        thresholds,
        pu_gains=channel_gain(model, _disk_radii(model, pu_u), pu_shadow),
        pu_interference_limits=np.full(model.num_pus, dbm_to_watts(model.pu_interference_limit_dbm)),
        p_max=dbm_to_watts(model.p_max_dbm),
    )


def _runs_as_rows(model: ChannelModel, seed_words: np.ndarray, threshold_db: float,
                  with_phase2: bool):
    """Draw, check, budget, admit, solve and audit one chunk of runs as (runs, N) rows.

    Row r draws from its own PCG64 stream, seeded with ``seed_words[r]`` (see
    ``_run_seed_words``), into its row; everything after the draw
    runs once for the chunk, in the operation order of the one-run functions
    (``draw_scenario``, ``Scenario`` checks, ``power_budget``, ``admit``,
    ``solve_waterfill`` on the admitted prefix, the audit on the padded power
    row), so every row's numbers equal that chain's bit for bit. Phase 2 runs
    once for the chunk, on its admitting rows padded to the largest admitted
    count; only the SINR conversion and means run per count. A run that
    fails a check, or whose phase-2 SINR leaves the float range, raises the
    chain's error once the runs before it are done.
    Returns the admitted-user count summed over runs, the audit violations,
    and per run that admitted anyone its min and mean achieved SINR in dB.
    """
    n, m = model.num_sus, model.num_pus
    runs = len(seed_words)
    su_u, su_shadow, pu_u, pu_shadow = _draw_rows(
        model, (Generator(PCG64(_SeedWords(words))) for words in seed_words), runs)
    gains = channel_gain(model, _disk_radii(model, su_u), su_shadow)
    gains = np.take_along_axis(gains, np.argsort(-gains, axis=1, kind="stable"), axis=1)
    pu_gains = channel_gain(model, _disk_radii(model, pu_u), pu_shadow)
    noise = np.full(n, dbm_to_watts(model.su_noise_dbm))
    thresholds = np.full(n, db_to_linear(threshold_db))
    limits = np.full(m, dbm_to_watts(model.pu_interference_limit_dbm))
    p_max = float(dbm_to_watts(model.p_max_dbm))
    with np.errstate(all="ignore"):  # rows that fail the checks are replayed below
        budgets = _budgets(pu_gains, limits, p_max)
    shared_ok = bool(_positive_rows(noise, thresholds, limits)) and 0.0 < p_max < math.inf
    ok = _positive_rows(gains, pu_gains) & (budgets > 0.0) & shared_ok
    good = runs if ok.all() else int(np.argmin(ok))
    refused = (gains[good], pu_gains[good]) if good < runs else None
    gains, pu_gains, budgets = gains[:good], pu_gains[:good], budgets[:good]

    powers, counts, _ = _equality_rows(thresholds, noise / gains, budgets)
    sinr_db = []
    if with_phase2 and counts.any():
        rows = np.flatnonzero(counts)
        k = counts[rows]
        width = int(k.max())
        # Each admitted prefix right-aligned in one (rows, width) block after
        # zero gains; row-major order pairs the prefix's entries with the block's.
        prefix = np.arange(width) < k[:, None]
        aligned = prefix[:, ::-1]
        r, c = np.nonzero(prefix)
        block_gains = np.zeros(prefix.shape)
        block_gains[aligned] = gains[rows[r], c]
        _, block = _waterfill_rows(thresholds[0], block_gains, noise[:width], budgets[rows])
        powers[rows[r], c] = block[aligned]
        # A padded user's SINR is 0; each count's users are converted and
        # averaged alone, in the one-run chain's summation order.
        sinr = _sinr(block, block_gains, noise[:width])
        min_db, mean_db = np.empty(len(rows)), np.empty(len(rows))
        for size in sorted(set(k.tolist())):
            group = np.flatnonzero(k == size)
            achieved_db = linear_to_db(sinr[group, width - size:])
            min_db[group] = achieved_db.min(axis=1)
            mean_db[group] = achieved_db.mean(axis=1)
        sinr_db = list(zip(min_db.tolist(), mean_db.tolist()))
    injected = powers.sum(axis=1)[:, None] * pu_gains
    violations = np.any(injected > limits * (1.0 + AUDIT_RTOL), axis=1)

    if refused is not None:  # the error the one-run chain raises at this run
        _check_budget(power_budget(Scenario(refused[0], noise, thresholds, refused[1],
                                            limits, p_max)))
        raise AssertionError("a run the batched checks refused passed the one-run checks")
    return int(counts.sum()), int(np.count_nonzero(violations)), sinr_db


def _grid_point_stats(args) -> ExperimentStats:
    (experiment, model, target_db, target_index, n_index, n_requesting,
     runs, master_seed) = args
    point_model = replace(model, num_sus=n_requesting)
    with_phase2 = experiment == "fig3"
    admitted_total = 0
    violations = 0
    min_db_sum = 0.0
    all_db_sum = 0.0
    admitted_runs = 0
    prefix = run_seed(master_seed, experiment, target_index, n_index)
    for start in range(0, runs, _CHUNK_RUNS):
        run_indices = np.arange(start, min(start + _CHUNK_RUNS, runs), dtype=np.uint64)
        seed_words = _run_seed_words(prefix, run_indices)
        admitted, violated, sinr_db = _runs_as_rows(point_model, seed_words, target_db,
                                                    with_phase2)
        admitted_total += admitted
        violations += violated
        # Summed one run at a time in run order, so the means keep their bits.
        for min_db, mean_db in sinr_db:
            min_db_sum += min_db
            all_db_sum += mean_db
        admitted_runs += len(sinr_db)
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
           n_jobs) -> list[ExperimentStats]:
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tasks = [
        (experiment, model, float(t_db), ti, ni, int(n), int(runs), int(master_seed))
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
             master_seed: int, *, n_jobs: int = 1) -> list[ExperimentStats]:
    """Mean admitted-user count over a (targeted SINR, requesting N) grid."""
    return _sweep("fig2", model, targeted_sinr_grid_db, n_values, runs, master_seed, n_jobs)


def run_fig3(model: ChannelModel, targeted_sinr_grid_db, n_values, runs: int,
             master_seed: int, *, n_jobs: int = 1) -> list[ExperimentStats]:
    """Like :func:`run_fig2`, plus the phase-2 achieved SINR per grid point.

    Phase 2 is water-filling, exact with no tolerance. Runs that admit nobody
    are excluded from the SINR means and counted via ``runs_with_admission``.
    """
    return _sweep("fig3", model, targeted_sinr_grid_db, n_values, runs, master_seed, n_jobs)


def run_fig4(model: ChannelModel, n: int, threshold_range_db: tuple[float, float],
             seed: int) -> list[SnapshotRow]:
    """Single-draw snapshot with per-user targets uniform in a dB range.

    Returns one row per requesting user in sorted (descending-gain) order:
    original index, gain, targeted and achieved SINR in dB, admission flag.
    Admitted users achieve at least their target; those lifted by phase 2
    (water-filling) sit at the common optimal level.
    """
    low, high = threshold_range_db
    if high < low:
        raise ValueError("threshold_range_db must be (low, high) with low <= high")
    target_rng = np.random.default_rng(run_seed(seed, "fig4", 0))
    target_db = target_rng.uniform(low, high, int(n))
    point_model = replace(model, num_sus=int(n))
    scenario = draw_scenario(point_model, run_seed(seed, "fig4", 1), target_db)
    outcome = run_two_phase(scenario, solver="waterfill")
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
