"""System model for a downlink NOMA secondary network under primary-user limits.

One base station serves N secondary users (SUs) on a channel shared with M
primary users (PUs). SUs are kept sorted by non-increasing channel gain; with
successive interference cancellation in that decoding order, user ``n`` sees
interference only from users ``1..n-1`` (the stronger-gain ones).

All quantities are linear scale: gains dimensionless, powers and noise in
watts, SINR linear. Conversions to dB/dBm live in :mod:`noma_crn.units` and
happen only at I/O boundaries.

Power vectors are plain 1-D ``float64`` numpy arrays indexed in the sorted
user order; producing functions guarantee non-negative entries.

Scenario file format (hand-editable, one item per line, ``#`` comments), read
by :func:`read_scenario` and written by :func:`write_scenario`::

    noise_dbm -120          # aggregate noise+PU interference per SU
    pmax_dbm  20            # transmit power cap
    su <gain_db> <threshold_db>     # one line per secondary user
    pu <gain_db> <limit_dbm>        # one line per primary user (optional)

Files carry dB/dBm values; conversion to linear happens on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioParseError
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__all__ = ["Scenario", "sort_users", "compute_sinr", "power_budget", "read_scenario",
           "write_scenario"]


def _check_budget(budget: float) -> None:
    if not (math.isfinite(budget) and budget > 0.0):
        raise ValueError("budget must be strictly positive and finite")


def _equality_walk(targets, costs, budget: float = math.inf, floor: float = 0.0,
                   keep: bool = True) -> tuple[list[float] | bool, float]:
    """The equality allocation both phases share: SINR exactly lambda_n per user.

    P_n = lambda_n * total + lambda_n * c_n in order, with lambda_n = max(target_n,
    floor), c_n = N_n/G_n and ``total`` the power before user n. Stops before the
    first user with ``total + P_n > budget``; that sum, one add per user, is
    also the next total. Returns the walked powers and total. Every P_n >= 0,
    so the walk reaches the end exactly when the full total fits. With
    ``keep`` false no list is built, and the first item is instead whether
    the walk reached the end: the fit test of a phase-2 probe.
    """
    powers = []
    total = 0.0
    for target, cost in zip(targets, costs):
        if target < floor:
            target = floor
        power = target * total + target * cost
        reached = total + power
        if reached > budget:
            return (powers if keep else False), total
        if keep:
            powers.append(power)
        total = reached
    return (powers if keep else True), total


def _equality_rows(lam, costs, budget=math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_equality_walk` on every row of an (R, N) array of costs at once,
    every user of row r held at SINR ``lam[r]``.

    ``lam`` and ``budget`` broadcast to (R,): a scalar ``lam`` serves every
    row. A column at a time, in the walk's operation order, each row runs
    P_n = lambda * total + lambda * c_n and stops before its first user with
    ``total + P_n > budget``. Returns the walked powers, zero past where each
    row stopped, each row's count of walked users and its total: row r equals
    the walk on row r's costs with every target lam[r], bit for bit.
    """
    costs = np.asarray(costs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    lam_cost = lam[..., None] * costs
    # An infinite budget stops no row, so the stopping test is skipped for it.
    budgeted = budget is not math.inf
    powers = np.zeros(costs.shape)
    total = np.zeros(len(costs))
    counts = np.full(len(costs), 0 if budgeted else costs.shape[1])
    walking = np.ones(len(costs), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic, as in the walk
        for lam_cost_n, power in zip(lam_cost.T, powers.T):
            np.multiply(lam, total, out=power)
            power += lam_cost_n
            if budgeted:
                walking &= ~(total + power > budget)
                if not walking.any():
                    power[:] = 0.0
                    break
                # A stopped row adds 0.0, which leaves its total's bits alone.
                power[~walking] = 0.0
                counts += walking
            total += power
    return powers, counts, total


def _positive_rows(*arrays) -> np.ndarray:
    """Per row, whether every entry of every array is strictly positive and finite.

    Scenario's entry rule over the last axis; a 1-D array is one row.
    """
    ok = np.True_
    for arr in arrays:
        ok = ok & (np.isfinite(arr) & (arr > 0.0)).all(axis=-1)
    return ok


def _budgets(pu_gains, pu_limits, p_max: float):
    """:func:`power_budget` on every row at once: min(min_m I_m/g_m, p_max) over
    the last axis, p_max alone with no PUs, bit for bit."""
    return np.minimum(np.min(pu_limits / pu_gains, axis=-1, initial=math.inf), p_max)


def _as_positive_array(name: str, values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not _positive_rows(arr):
        raise ValueError(f"{name} entries must be strictly positive and finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Scenario:
    """A full problem instance with SUs already sorted by descending gain.

    Attributes
    ----------
    su_gains : channel gains G_n, non-increasing (linear, dimensionless).
    su_noise : per-SU aggregate noise-plus-PU-interference power (watts).
    su_thresholds : per-SU minimum SINR targets (linear).
    pu_gains : channel gains toward each PU (may be empty).
    pu_interference_limits : tolerable interference per PU (watts), parallel
        to ``pu_gains``.
    p_max : maximum total transmit power for the secondary system (watts).
    order : original index of the user at each sorted position, so results
        can be reported in the caller's original ordering. Defaults to the
        identity.
    noise_over_gain : derived per-user cost c_n = N_n/G_n (watts), inf past the
        float range (never admitted); a cost that underflows to 0 is refused.

    Use :func:`sort_users` to build a Scenario from unsorted per-user lists;
    direct construction requires the gains to be sorted already. N = 0 is a
    legal, fully degenerate instance.
    """

    su_gains: np.ndarray
    su_noise: np.ndarray
    su_thresholds: np.ndarray
    pu_gains: np.ndarray
    pu_interference_limits: np.ndarray
    p_max: float
    order: np.ndarray | None = None
    noise_over_gain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gains = _as_positive_array("su_gains", self.su_gains)
        noise = _as_positive_array("su_noise", self.su_noise)
        thresholds = _as_positive_array("su_thresholds", self.su_thresholds)
        pu_gains = _as_positive_array("pu_gains", self.pu_gains)
        pu_limits = _as_positive_array("pu_interference_limits", self.pu_interference_limits)
        if not (len(gains) == len(noise) == len(thresholds)):
            raise ValueError("su_gains, su_noise and su_thresholds must have equal length")
        with np.errstate(over="ignore"):
            costs = noise / gains
        if not costs.all():
            raise ValueError("su_noise / su_gains entries must not underflow to 0")
        costs.flags.writeable = False
        if len(pu_gains) != len(pu_limits):
            raise ValueError("pu_gains and pu_interference_limits must have equal length")
        if np.any(np.diff(gains) > 0.0):
            raise ValueError("su_gains must be sorted non-increasing; use sort_users()")
        p_max = float(self.p_max)
        if not (np.isfinite(p_max) and p_max > 0.0):
            raise ValueError("p_max must be strictly positive and finite")
        if self.order is None:
            order = np.arange(len(gains))
        else:
            order = np.asarray(self.order, dtype=int).copy()
            if sorted(order.tolist()) != list(range(len(gains))):
                raise ValueError("order must be a permutation of 0..N-1")
        order.flags.writeable = False
        object.__setattr__(self, "su_gains", gains)
        object.__setattr__(self, "su_noise", noise)
        object.__setattr__(self, "su_thresholds", thresholds)
        object.__setattr__(self, "pu_gains", pu_gains)
        object.__setattr__(self, "pu_interference_limits", pu_limits)
        object.__setattr__(self, "p_max", p_max)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "noise_over_gain", costs)

    @property
    def n_sus(self) -> int:
        return len(self.su_gains)

    @property
    def n_pus(self) -> int:
        return len(self.pu_gains)

    def prefix(self, count: int) -> Scenario:
        """The same instance restricted to the first ``count`` sorted users."""
        if not 0 <= count <= self.n_sus:
            raise ValueError(f"prefix count {count} out of range 0..{self.n_sus}")
        return Scenario(self.su_gains[:count], self.su_noise[:count], self.su_thresholds[:count],
                        self.pu_gains, self.pu_interference_limits, self.p_max,
                        np.argsort(np.argsort(self.order[:count])))

    def to_original_order(self, values) -> np.ndarray:
        """Scatter per-user ``values`` (sorted order) back to the original ordering."""
        arr = np.asarray(values)
        if arr.shape[0] != self.n_sus:
            raise ValueError("values length must equal the SU count")
        out = np.empty_like(arr)
        out[self.order] = arr
        return out


def sort_users(
    su_gains,
    su_noise,
    su_thresholds,
    *,
    pu_gains=(),
    pu_interference_limits=(),
    p_max: float,
) -> Scenario:
    """Build a Scenario from unsorted per-user lists.

    The three SU lists are permuted jointly so gains are non-increasing; ties
    keep their original relative order, and the applied permutation is kept in
    ``Scenario.order`` so outputs can be mapped back.
    """
    gains = np.atleast_1d(np.asarray(su_gains, dtype=float))
    noise = np.atleast_1d(np.asarray(su_noise, dtype=float))
    thresholds = np.atleast_1d(np.asarray(su_thresholds, dtype=float))
    if not (len(gains) == len(noise) == len(thresholds)):
        raise ValueError("su_gains, su_noise and su_thresholds must have equal length")
    order = np.argsort(-gains, kind="stable")
    return Scenario(
        su_gains=gains[order],
        su_noise=noise[order],
        su_thresholds=thresholds[order],
        pu_gains=np.asarray(pu_gains, dtype=float),
        pu_interference_limits=np.asarray(pu_interference_limits, dtype=float),
        p_max=p_max,
        order=order,
    )


def _sinr(powers, costs) -> np.ndarray:
    """gamma_n = P_n / (sum_{j<n} P_j + c_n) over the last axis, unchecked.

    After SIC, only the stronger-gain users 1..n-1 interfere with user n:
    P_n G_n / (G_n sum_{j<n} P_j + N_n), divided through by G_n, with the
    cost c_n = N_n/G_n. That is the equality walk read backwards, and it
    overflows only where the SINR itself leaves the float range.
    """
    prior = np.zeros_like(powers)
    np.cumsum(powers[..., :-1], axis=-1, out=prior[..., 1:])
    return powers / (prior + costs)


def compute_sinr(scenario: Scenario, powers) -> np.ndarray:
    """Per-user SINR for the given power vector (sorted order); see :func:`_sinr`."""
    p = np.asarray(powers, dtype=float)
    if p.shape != (scenario.n_sus,):
        raise ValueError(f"powers must have shape ({scenario.n_sus},), got {p.shape}")
    if p.size and (np.any(p < 0.0) or not np.all(np.isfinite(p))):
        raise ValueError("powers must be non-negative and finite")
    return _sinr(p, scenario.noise_over_gain)


def power_budget(scenario: Scenario) -> float:
    """Total power available to the secondary system (watts).

    B = min(p_max, min_m I_m/g_m): the tightest PU constraint capped at
    ``p_max``; with no PUs the cap alone applies. :func:`_budgets` is the row
    form the sweeps use. In float arithmetic a ratio past the float range is
    inf, with no warning, and ``p_max`` caps it.
    """
    budget = scenario.p_max
    for limit, gain in zip(scenario.pu_interference_limits.tolist(), scenario.pu_gains.tolist()):
        ratio = limit / gain
        if ratio < budget:
            budget = ratio
    return budget


def read_scenario(path: str) -> Scenario:
    """Parse a scenario file; raises ScenarioParseError with line context."""
    scalars: dict[str, float] = {}
    su_rows: list[tuple[float, float]] = []
    pu_rows: list[tuple[float, float]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ScenarioParseError(f"{path}: cannot read scenario file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, values = parts[0], parts[1:]

        def numbers(expected: int) -> list[float]:
            if len(values) != expected:
                raise ScenarioParseError(
                    f"{path}:{lineno}: '{key}' expects {expected} value(s), got {len(values)}")
            try:
                return [float(v) for v in values]
            except ValueError as exc:
                raise ScenarioParseError(f"{path}:{lineno}: malformed number in '{line}'") from exc

        if key in ("noise_dbm", "pmax_dbm"):
            if key in scalars:
                raise ScenarioParseError(f"{path}:{lineno}: duplicate '{key}'")
            scalars[key] = numbers(1)[0]
        elif key == "su":
            gain_db, thr_db = numbers(2)
            su_rows.append((gain_db, thr_db))
        elif key == "pu":
            gain_db, limit_dbm = numbers(2)
            pu_rows.append((gain_db, limit_dbm))
        else:
            raise ScenarioParseError(f"{path}:{lineno}: unknown key '{key}'")
    for required in ("noise_dbm", "pmax_dbm"):
        if required not in scalars:
            raise ScenarioParseError(f"{path}: missing required '{required}' line")
    n = len(su_rows)
    with np.errstate(over="ignore"):  # Scenario refuses a value beyond the float range
        return sort_users(
            [db_to_linear(g) for g, _ in su_rows],
            [dbm_to_watts(scalars["noise_dbm"])] * n if n else [],
            [db_to_linear(t) for _, t in su_rows],
            pu_gains=[db_to_linear(g) for g, _ in pu_rows],
            pu_interference_limits=[dbm_to_watts(lim) for _, lim in pu_rows],
            p_max=dbm_to_watts(scalars["pmax_dbm"]),
        )


def write_scenario(path: str, scenario: Scenario) -> None:
    """Write the canonical (sorted-order) scenario file for this instance.

    Values are stored in dB/dBm at full float precision. Per-user noise must
    be uniform, matching the file format's single ``noise_dbm`` line.
    """
    if scenario.n_sus and not np.all(scenario.su_noise == scenario.su_noise[0]):
        raise ValueError("scenario files carry a single noise level; per-user noise differs")
    noise_dbm = watts_to_dbm(scenario.su_noise[0]) if scenario.n_sus else -120.0
    lines = [
        f"noise_dbm {noise_dbm:.17g}",
        f"pmax_dbm {watts_to_dbm(scenario.p_max):.17g}",
    ]
    for gain, thr in zip(scenario.su_gains, scenario.su_thresholds):
        lines.append(f"su {linear_to_db(gain):.17g} {linear_to_db(thr):.17g}")
    for gain, limit in zip(scenario.pu_gains, scenario.pu_interference_limits):
        lines.append(f"pu {linear_to_db(gain):.17g} {watts_to_dbm(limit):.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
