import math
import warnings

import numpy as np
import pytest

from noma_crn import (
    InfeasibleError,
    Scenario,
    admit,
    compute_sinr,
    feasible,
    min_power_for_targets,
    solve_bisection,
    solve_waterfill,
    total_power_curve,
)
from noma_crn import maxmin
from noma_crn.model import _equality_rows, _equality_walk

from conftest import random_admitted_instance


def unit_pair(thresholds=(1.0, 1.0)) -> Scenario:
    return Scenario([1.0, 1.0], [1.0, 1.0], list(thresholds), [], [], 1e6)


class TestMinPowerForTargets:
    def test_single_user(self):
        total, powers = min_power_for_targets(Scenario([1.0], [1.0], [1.0], [], [], 10.0), [1.0])
        assert total == 1.0
        np.testing.assert_array_equal(powers, [1.0])

    def test_two_users_unit_targets(self):
        total, powers = min_power_for_targets(unit_pair(), [1.0, 1.0])
        np.testing.assert_allclose(powers, [1.0, 2.0])
        assert total == pytest.approx(3.0)
        np.testing.assert_allclose(compute_sinr(unit_pair(), powers), [1.0, 1.0], rtol=1e-12)

    def test_two_users_target_two(self):
        total, powers = min_power_for_targets(unit_pair(), [2.0, 2.0])
        np.testing.assert_allclose(powers, [2.0, 6.0])
        assert total == pytest.approx(8.0)
        np.testing.assert_allclose(compute_sinr(unit_pair(), powers), [2.0, 2.0], rtol=1e-12)

    def test_targets_are_hit_exactly_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scenario, _ = random_admitted_instance(rng)
            targets = 10 ** (rng.uniform(0, 25, scenario.n_sus) / 10)
            _, powers = min_power_for_targets(scenario, targets)
            np.testing.assert_allclose(compute_sinr(scenario, powers), targets, rtol=1e-12)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            min_power_for_targets(unit_pair(), [1.0])
        with pytest.raises(ValueError):
            min_power_for_targets(unit_pair(), [1.0, 0.0])


class TestTotalPowerCurve:
    def test_reference_points(self):
        assert total_power_curve(unit_pair(), 1.0) == pytest.approx(3.0)
        assert total_power_curve(unit_pair(), 2.0) == pytest.approx(8.0)

    def test_constant_below_smallest_threshold(self):
        s = unit_pair(thresholds=(2.0, 1.5))
        at_thresholds, _ = min_power_for_targets(s, s.su_thresholds)
        for theta in (0.1, 0.5, 1.0, 1.5):
            assert total_power_curve(s, theta) == pytest.approx(at_thresholds, rel=1e-15)

    def test_strictly_increasing_beyond_smallest_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scenario, _ = random_admitted_instance(rng)
            lo = float(np.min(scenario.su_thresholds))
            thetas = lo * 10 ** np.sort(rng.uniform(0.01, 2, 5))
            values = [total_power_curve(scenario, t) for t in thetas]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_budgeted_walk_fits_exactly_when_curve_fits(self):
        # The solvers read S(theta) <= B off the walk under budget B; that
        # must match comparing the full S(theta), also at threshold
        # breakpoints and with B equal to S(theta) or one ulp either side.
        rng = np.random.default_rng(7)
        for _ in range(100):
            scenario, budget = random_admitted_instance(rng)
            thresholds = scenario.su_thresholds.tolist()
            over_gain = scenario.noise_over_gain.tolist()
            for theta in [float(10 ** rng.uniform(-1, 3)), *thresholds]:
                curve = total_power_curve(scenario, theta)
                for b in (budget, curve, math.nextafter(curve, 0.0),
                          math.nextafter(curve, math.inf)):
                    powers, total = _equality_walk(thresholds, over_gain, b, theta)
                    fits = len(powers) == scenario.n_sus
                    assert fits == (curve <= b)
                    assert fits == feasible(scenario, theta, b)
                    if fits:
                        assert total == curve


class TestFeasible:
    def test_reference_cases(self):
        assert feasible(unit_pair(), 1.0, 3.0) is True
        assert feasible(unit_pair(), 2.0, 3.0) is False

    def test_below_thresholds_reduces_to_phase1_feasibility(self):
        s = unit_pair(thresholds=(1.25, 1.0))
        required, _ = min_power_for_targets(s, s.su_thresholds)
        assert feasible(s, 0.5, required)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            scenario, budget = random_admitted_instance(rng)
            t_hi = float(10 ** rng.uniform(-1, 4))
            t_lo = t_hi * rng.uniform(0.1, 1.0)
            if feasible(scenario, t_hi, budget):
                assert feasible(scenario, t_lo, budget)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            feasible(unit_pair(), 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_budget_or_theta(self, bad):
        with pytest.raises(ValueError, match="budget"):
            feasible(unit_pair(), 1.0, bad)
        with pytest.raises(ValueError, match="theta"):
            feasible(unit_pair(), bad, 1.0)
        with pytest.raises(ValueError, match="theta"):
            total_power_curve(unit_pair(), bad)


class TestSolversOnKnownInstances:
    def test_quadratic_root_budget_seven(self, two_equal_users):
        expected = math.sqrt(8.0) - 1.0
        b = solve_bisection(two_equal_users, 7.0)
        w = solve_waterfill(two_equal_users, 7.0)
        assert w.theta_star == pytest.approx(expected, abs=1e-12)
        assert abs(b.theta_star - expected) <= 1e-6
        np.testing.assert_allclose(w.powers, [expected, 7.0 - expected], rtol=1e-9)

    def test_segment_boundary_hit_exactly(self):
        s = unit_pair(thresholds=(2.0, 1.0))
        w = solve_waterfill(s, 8.0)
        assert w.theta_star == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(w.powers, [2.0, 6.0], rtol=1e-12)
        np.testing.assert_allclose(w.achieved_sinr, [2.0, 2.0], rtol=1e-12)

    def test_above_all_thresholds_quadratic(self):
        s = unit_pair(thresholds=(2.0, 1.0))
        w = solve_waterfill(s, 9.0)
        assert w.theta_star == pytest.approx(math.sqrt(10.0) - 1.0, abs=1e-12)
        b = solve_bisection(s, 9.0)
        assert abs(b.theta_star - w.theta_star) <= 1e-6

    def test_zero_slack_keeps_everyone_at_threshold(self, two_equal_users):
        w = solve_waterfill(two_equal_users, 3.0)
        b = solve_bisection(two_equal_users, 3.0)
        assert w.theta_star == 1.0
        assert b.theta_star == 1.0
        np.testing.assert_allclose(w.powers, [1.0, 2.0], rtol=1e-12)

    def test_single_user_takes_whole_budget_exactly(self):
        s = Scenario([2.0], [0.5], [1.0], [], [], 100.0)
        w = solve_waterfill(s, 5.0)
        assert w.theta_star == 5.0 * 2.0 / 0.5
        np.testing.assert_array_equal(w.powers, [5.0])
        b = solve_bisection(s, 5.0)
        assert abs(b.theta_star - w.theta_star) <= 1e-6

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            solve_waterfill(Scenario([], [], [], [], [], 1.0), 1.0)
        with pytest.raises(ValueError):
            solve_bisection(Scenario([], [], [], [], [], 1.0), 1.0)

    def test_budget_below_requirement_is_infeasible(self, two_equal_users):
        with pytest.raises(InfeasibleError):
            solve_waterfill(two_equal_users, 2.9)
        with pytest.raises(InfeasibleError):
            solve_bisection(two_equal_users, 2.9)

    def test_bad_epsilon_rejected(self, two_equal_users):
        with pytest.raises(ValueError):
            solve_bisection(two_equal_users, 7.0, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("solve", [solve_bisection, solve_waterfill])
    def test_nonfinite_or_zero_epsilon_rejected_by_both_solvers(self, two_equal_users, solve,
                                                                epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            solve(two_equal_users, 7.0, epsilon=epsilon)


class TestSolverProperties:
    def test_solvers_agree_and_satisfy_characterization(self):
        rng = np.random.default_rng(1234)
        eps = 1e-6
        for _ in range(150):
            scenario, budget = random_admitted_instance(rng)
            b = solve_bisection(scenario, budget, eps)
            w = solve_waterfill(scenario, budget, eps)
            assert abs(b.theta_star - w.theta_star) <= 2 * eps
            scale = 10 * eps * float(np.max(scenario.noise_over_gain))
            np.testing.assert_allclose(b.powers, w.powers, atol=scale, rtol=1e-6)
            for sol in (b, w):
                expected = np.maximum(sol.theta_star, scenario.su_thresholds)
                np.testing.assert_allclose(sol.achieved_sinr, expected, rtol=1e-6)
                assert sol.powers.sum() == pytest.approx(budget, rel=1e-9)
                assert sol.theta_star >= float(np.min(scenario.su_thresholds))
                assert np.all(sol.powers >= 0.0)

    def test_iteration_count_matches_interval_halving(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            scenario, budget = random_admitted_instance(rng)
            eps = float(10 ** rng.uniform(-8, -4))
            sol = solve_bisection(scenario, budget, eps)
            lo = float(np.min(scenario.su_thresholds))
            hi = max(float(np.max(budget * scenario.su_gains / scenario.su_noise)), lo)
            width = hi - lo
            expected = 0 if width <= eps else math.ceil(math.log2(width / eps))
            assert sol.iterations == expected

    def test_theta_monotone_in_budget(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            scenario, budget = random_admitted_instance(rng)
            w1 = solve_waterfill(scenario, budget)
            w2 = solve_waterfill(scenario, budget * rng.uniform(1.0, 10.0))
            assert w2.theta_star >= w1.theta_star - 1e-12 * w1.theta_star

    def test_phase2_after_phase1_never_drops_anyone_below_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            scenario, _ = random_admitted_instance(rng, max_users=6)
            budget = 10 ** rng.uniform(-6, 0)
            adm = admit(scenario, budget)
            if adm.admitted_count == 0:
                continue
            sub = scenario.prefix(adm.admitted_count)
            sol = solve_waterfill(sub, budget)
            assert np.all(sol.achieved_sinr >= sub.su_thresholds * (1 - 1e-9))
            # Phase 2 only ever adds power on top of the phase-1 allocation.
            assert np.all(sol.powers >= adm.powers * (1 - 1e-12))

    def test_waterfill_iterations_count_flooded_levels(self):
        s = unit_pair(thresholds=(2.0, 1.0))
        # theta* between the two levels: no level fully flooded.
        assert solve_waterfill(s, 7.0).iterations == 0
        # theta* beyond the top level: the one step up to it was completed.
        assert solve_waterfill(s, 9.0).iterations == 1

    def test_waterfill_iterations_count_thresholds_up_to_theta(self):
        # iterations is the number of distinct thresholds <= theta*, less one:
        # every level up to theta* is flooded, none above it.
        rng = np.random.default_rng(41)
        for _ in range(300):
            if rng.random() < 0.5:
                scenario, budget = random_admitted_instance(rng, max_users=12)
            else:
                scenario, required = _random_instance(rng)
                budget = required * 10 ** rng.uniform(0.0, 2.0)
            sol = solve_waterfill(scenario, budget)
            levels = set(scenario.su_thresholds.tolist())
            assert sol.iterations == sum(t <= sol.theta_star for t in levels) - 1


def _record_walks(monkeypatch) -> list:
    """S(theta) of every equality walk the solvers run, in call order."""
    totals = []

    def recording(*args, **kwargs):
        powers, total = _equality_walk(*args, **kwargs)
        totals.append(total)
        return powers, total

    monkeypatch.setattr(maxmin, "_equality_walk", recording)
    return totals


def _lone_user_bound(scenario: Scenario, budget: float) -> float:
    return max(float(np.max(budget * scenario.su_gains / scenario.su_noise)),
               float(np.min(scenario.su_thresholds)))


#: S(theta) evaluations allowed per water-filling solve, the threshold check
#: and the closing allocation included, for budgets with slack: at least a
#: factor 1 + 1e-12 above S at the thresholds and a fitting float not too
#: near them (worst seen: 14).
MAX_WALKS_PER_SOLVE = 20

#: The same bound for budgets equal to S at the thresholds or 1e-12 above it.
#: There the floored users can carry so small a share of S that S moves by
#: one ulp only every ~1e5 floats, and the last step spends about log2 of that
#: flat run's width (worst seen: 25 over 2,000 solves).
MAX_WALKS_NEAR_ZERO_SLACK = 30


def _random_instance(rng, levels_db=(0.0, 3.0, 6.0, 10.0, 20.0)) -> tuple[Scenario, float]:
    """2-40 users, thresholds from ``levels_db`` ({0, 3, 6, 10, 20} dB by
    default), per-user or common noise, and the total power at the thresholds."""
    n = int(rng.integers(2, 41))
    gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
    if rng.random() < 0.5:
        noise = 10 ** rng.uniform(-16, -12, n)
    else:
        noise = np.full(n, 10 ** rng.uniform(-16, -12))
    thresholds = 10 ** (rng.choice(levels_db, n) / 10)
    scenario = Scenario(gains, noise, thresholds, [], [], 1.0)
    required, _ = min_power_for_targets(scenario, scenario.su_thresholds)
    return scenario, required


class TestSinrUpperBound:
    def test_equals_the_array_expression_bitwise(self):
        # Gains, noise and budget log-uniform over 1e-300..1e300, so many
        # bounds overflow to inf: each equals numpy's array expression bit
        # for bit, and none warns.
        rng = np.random.default_rng(11)
        overflowed = 0
        for _ in range(300):
            n = int(rng.integers(1, 31))
            gains = np.sort(10 ** rng.uniform(-300, 300, n))[::-1]
            noise = 10 ** rng.uniform(-300, 300, n)
            budget = float(10 ** rng.uniform(-300, 300))
            scenario = Scenario(gains, noise, np.ones(n), [], [], budget)
            with np.errstate(all="ignore"):
                expected = float(np.max(budget * gains / noise))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = maxmin._sinr_upper_bound(scenario, np.float64(budget))
            assert got.hex() == expected.hex()
            overflowed += got == math.inf
        assert overflowed


class TestWaterfillRoot:
    """theta* is the largest float with S(theta*) <= budget on every branch, in
    a bounded number of walks (MAX_WALKS_PER_SOLVE with slack,
    MAX_WALKS_NEAR_ZERO_SLACK without)."""

    def _check_canonical(self, scenario, budget, walks) -> int:
        """Check one water-filling solve; returns the walks it ran."""
        walks.clear()
        theta = solve_waterfill(scenario, budget).theta_star
        count = len(walks)
        assert feasible(scenario, theta, budget)
        if theta != _lone_user_bound(scenario, budget):
            assert not feasible(scenario, math.nextafter(theta, math.inf), budget)
        b = solve_bisection(scenario, budget)
        assert abs(theta - b.theta_star) <= 2 * maxmin.DEFAULT_EPSILON + 1e-12 * theta
        return count

    def test_theta_is_the_largest_fitting_float(self, monkeypatch):
        # Mixed thresholds put the root in every kind of segment; x1.5 and
        # x1e3 reach the top one, x(1 + 1e-12) a budget one step away.
        rng = np.random.default_rng(2024)
        walks = _record_walks(monkeypatch)
        worst = 0
        for _ in range(1000):
            scenario, required = _random_instance(rng)
            base = required * 10 ** rng.uniform(0.0, 1.0)
            for factor in (1.0, 1.0 + 1e-12, 1.5, 1e3):
                worst = max(worst, self._check_canonical(scenario, base * factor, walks))
        assert worst <= MAX_WALKS_PER_SOLVE

    @pytest.mark.parametrize("slack", [0.0, 1e-12])
    def test_near_zero_slack(self, slack, monkeypatch):
        # Budget == S at the thresholds (zero slack) or 1e-12 above it: often
        # the floats just above the smallest threshold fit too, and theta*
        # is the last of them, not the threshold itself.
        rng = np.random.default_rng(6)
        walks = _record_walks(monkeypatch)
        worst = above = 0
        for _ in range(1000):
            scenario, required = _random_instance(rng)
            budget = required * (1.0 + slack)
            worst = max(worst, self._check_canonical(scenario, budget, walks))
            above += solve_waterfill(scenario, budget).theta_star > min(scenario.su_thresholds)
        assert worst <= MAX_WALKS_NEAR_ZERO_SLACK
        assert above > 100

    @pytest.mark.parametrize("threshold_db", [0.0, -20.0])
    @pytest.mark.parametrize("n", [30, 60])
    def test_overflowing_top_of_bracket(self, n, threshold_db, monkeypatch):
        # The top of the bracket, the lone-user bound, is ~1e20 and S there
        # overflows to inf. At -20 dB the first Newton step from the bottom
        # also lands where S overflows, and the root must fall back to
        # geometric midpoints until S is finite again.
        rng = np.random.default_rng(n)
        gains = np.sort(10 ** rng.uniform(2, 6, n))[::-1]
        thresholds = np.full(n, 10 ** (threshold_db / 10))
        scenario = Scenario(gains, np.full(n, 1e-15), thresholds, [], [], 0.1)
        assert total_power_curve(scenario, _lone_user_bound(scenario, 0.1)) == math.inf
        walks = _record_walks(monkeypatch)
        assert self._check_canonical(scenario, 0.1, walks) <= MAX_WALKS_PER_SOLVE
        if threshold_db < 0.0:
            assert math.inf in walks

    def test_wide_threshold_spread(self, monkeypatch):
        # Thresholds from -20 to 30 dB: users at -20 dB can carry so small a
        # share of S that the log-log Newton step overflows math.expm1. Such
        # a step leaves the bracket, so the geometric midpoint takes over.
        # No walk cap here: these solves can take more walks than the
        # families above.
        rng = np.random.default_rng(5)
        walks = _record_walks(monkeypatch)
        for _ in range(300):
            scenario, required = _random_instance(
                rng, levels_db=(-20.0, 0.0, 3.0, 6.0, 10.0, 20.0, 30.0))
            base = required * 10 ** rng.uniform(0.0, 1.0)
            for factor in (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.5, 1e3):
                self._check_canonical(scenario, base * factor, walks)

    def test_fewer_walks_than_bisection(self, monkeypatch):
        # Bisection runs its fixed halvings and then its own _level_root.
        rng = np.random.default_rng(8)
        walks = _record_walks(monkeypatch)
        for _ in range(20):
            scenario, budget = random_admitted_instance(rng, max_users=12)
            walks.clear()
            b = solve_bisection(scenario, 2.0 * budget)
            bisection_walks = len(walks)
            assert bisection_walks > b.iterations
            walks.clear()
            solve_waterfill(scenario, 2.0 * budget)
            assert len(walks) <= MAX_WALKS_PER_SOLVE < bisection_walks


def _common_threshold_block(rng, rows: int, k: int, threshold: float):
    """``rows`` admitted sets of ``k`` users at one threshold, as the sweeps
    hand them to phase 2: gains sorted per row, per-user noise, and the total
    power at the threshold per row."""
    gains = np.sort(10 ** rng.uniform(-8, -3, (rows, k)), axis=1)[:, ::-1].copy()
    noise = 10 ** rng.uniform(-16, -12, (rows, k))
    return gains, noise, _equality_rows(threshold, noise / gains)[2]


def _rows_equal_scalar(threshold: float, gains, noise, budgets) -> np.ndarray:
    """Check _waterfill_rows against solve_waterfill row by row, bit for bit;
    returns the rows' theta_star. A row's users are its nonzero gains, which
    end the row; its padded columns must get zero power."""
    theta, powers = maxmin._waterfill_rows(threshold, gains, noise, budgets)
    noise = np.broadcast_to(noise, gains.shape)
    for r, budget in enumerate(budgets.tolist()):
        k = np.count_nonzero(gains[r])
        users = slice(gains.shape[1] - k, None)
        scenario = Scenario(gains[r, users], noise[r, users], np.full(k, threshold), [], [], 1.0)
        solution = solve_waterfill(scenario, budget)
        assert theta[r] == solution.theta_star
        assert powers[r].tolist() == [0.0] * (gains.shape[1] - k) + solution.powers.tolist()
    return theta


def _ragged(blocks, width: int = 0):
    """Stack (gains, noise, budgets) blocks of different user counts into one
    block at least ``width`` wide, each row's users right-aligned after zero
    gains (noise 1 there)."""
    width = max(width, *(gains.shape[1] for gains, _, _ in blocks))
    padded = []
    for gains, noise, budgets in blocks:
        rows, k = gains.shape
        pad = ((0, 0), (width - k, 0))
        padded.append((np.pad(gains, pad), np.pad(np.broadcast_to(noise, gains.shape), pad,
                                                  constant_values=1.0), budgets))
    return tuple(np.concatenate(parts) for parts in zip(*padded))


class TestWaterfillRows:
    """The sweeps' phase 2 solves a block of rows whose users share one
    threshold at once; every row must equal solve_waterfill bit for bit."""

    def test_random_blocks(self):
        # Budgets from x1 + 1e-12 (a budget one step away) to x1e3 (theta*
        # far above the threshold), k = 1 (the whole budget) to 30.
        rng = np.random.default_rng(31)
        for k in range(1, 31):
            threshold = 10 ** (rng.choice([0.0, 3.0, 6.0, 10.0, 20.0, 30.0]) / 10)
            gains, noise, required = _common_threshold_block(rng, 24, k, threshold)
            budgets = required * 10 ** rng.uniform(0.0, 3.0, 24)
            budgets[::6] = required[::6] * (1.0 + 1e-12)
            _rows_equal_scalar(threshold, gains, noise, budgets)

    def test_common_noise_broadcasts(self):
        rng = np.random.default_rng(32)
        gains, _, _ = _common_threshold_block(rng, 16, 7, 10.0)
        noise = np.full(7, 1e-15)
        required = _equality_rows(10.0, noise / gains)[2]
        _rows_equal_scalar(10.0, gains, noise, required * 10 ** rng.uniform(0.0, 2.0, 16))

    @pytest.mark.parametrize("slack", [0.0, 1e-12])
    def test_near_zero_slack(self, slack):
        # Budget == S at the threshold or 1e-12 above it: often the floats
        # just above the threshold fit too, and theta* is the last of them.
        # A lone user's budget * G / N can land an ulp below the threshold.
        rng = np.random.default_rng(6)
        above = 0
        for k in range(1, 41):
            threshold = 10 ** (rng.choice([0.0, 3.0, 6.0, 10.0, 20.0]) / 10)
            gains, noise, required = _common_threshold_block(rng, 24, k, threshold)
            theta = _rows_equal_scalar(threshold, gains, noise, required * (1.0 + slack))
            above += np.count_nonzero(theta > threshold)
        assert above > 10

    @pytest.mark.parametrize("threshold_db", [0.0, -20.0])
    @pytest.mark.parametrize("k", [30, 60])
    def test_overflowing_top_of_bracket(self, k, threshold_db):
        # The lone-user bound, the top of the bracket, is ~1e20 and S there
        # overflows to inf; at -20 dB Newton's first step overflows too.
        rng = np.random.default_rng(k)
        gains = np.sort(10 ** rng.uniform(2, 6, (8, k)), axis=1)[:, ::-1].copy()
        threshold = 10 ** (threshold_db / 10)
        noise, budgets = np.full(k, 1e-15), np.full(8, 0.1)
        bound = np.max(0.1 * gains / noise, axis=1)
        with np.errstate(over="ignore"):
            assert np.all(_equality_rows(threshold, noise / gains, floor=bound)[2] == math.inf)
        _rows_equal_scalar(threshold, gains, noise, budgets)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_bit_patterns_near_the_top_of_the_float_range(self):
        # theta* ~1e300 and a bracket that ends at inf: the last-fit search
        # then bisects between bit patterns whose sum overflows int64.
        rng = np.random.default_rng(33)
        rows = 12
        gains = np.sort(10 ** rng.uniform(3, 6, (rows, 2)), axis=1)[:, ::-1].copy()
        noise = 10 ** rng.uniform(-298, -295, (rows, 2))
        budgets = 10 ** rng.uniform(295, 307, rows)
        threshold = 1e150
        theta = _rows_equal_scalar(threshold, gains, noise, budgets)
        assert np.all(theta > 1e290)
        # From the raw bracket, galloping up one float at a time, the search
        # lands on the same theta*: it does not depend on the path.
        over_gain = noise / gains
        lo = np.full(rows, threshold)
        with np.errstate(all="ignore"):
            fit = maxmin._last_fit_rows(threshold, over_gain, budgets, lo, np.full(rows, math.inf),
                                        lo, np.ones(rows, dtype=np.int64))
        assert fit.tolist() == theta.tolist()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_ragged_block_of_every_count_in_one_call(self):
        # Rows of k = 1..30 users from the generators above, shuffled together
        # into one right-aligned block at one threshold: random budgets, zero
        # and 1e-12 slack, a top of the bracket where S overflows, and theta*
        # near the top of the float range. One search serves them all.
        rng = np.random.default_rng(34)
        threshold = 1.0
        blocks = []
        for k in range(1, 31):
            gains, noise, required = _common_threshold_block(rng, 8, k, threshold)
            budgets = required * 10 ** rng.uniform(0.0, 3.0, 8)
            budgets[:2] = required[:2] * np.array([1.0, 1.0 + 1e-12])
            blocks.append((gains, noise, budgets))
        overflowing = []
        for k in range(20, 31):
            gains = np.sort(10 ** rng.uniform(2, 6, (2, k)), axis=1)[:, ::-1].copy()
            noise = np.full(k, 1e-15)
            bound = np.max(0.1 * gains / noise, axis=1)
            with np.errstate(over="ignore"):
                overflowing.append(_equality_rows(threshold, noise / gains, floor=bound)[2])
            blocks.append((gains, noise, np.full(2, 0.1)))
        assert np.all(np.concatenate(overflowing) == math.inf)
        gains = np.sort(10 ** rng.uniform(3, 6, (6, 2)), axis=1)[:, ::-1].copy()
        noise = 10 ** rng.uniform(-298, -295, (6, 2))
        blocks.append((gains, noise, 10 ** rng.uniform(295, 307, 6)))
        gains, noise, budgets = _ragged(blocks)
        order = rng.permutation(len(budgets))
        gains, noise, budgets = gains[order], noise[order], budgets[order]
        counts = np.count_nonzero(gains, axis=1)
        assert set(counts.tolist()) == set(range(1, 31))
        theta = _rows_equal_scalar(threshold, gains, noise, budgets)
        assert np.all(theta[budgets > 1e290] > 1e290)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_padding_leaves_the_search_path_alone(self, monkeypatch):
        # theta* ~1e300 for two users: (1 + theta)**e overflows for e >= 2, so
        # only the padding's exponents overflow. Masked out of the slope, they
        # leave every Newton step as it was; unmasked, 0 * inf is nan and the
        # rows fall back to geometric midpoints, ~20x the walks.
        rng = np.random.default_rng(33)
        gains = np.sort(10 ** rng.uniform(3, 6, (12, 2)), axis=1)[:, ::-1].copy()
        noise = 10 ** rng.uniform(-298, -295, (12, 2))
        budgets = 10 ** rng.uniform(295, 307, 12)
        walks = []

        def recording(*args, **kwargs):
            walks.append(1)
            return _equality_rows(*args, **kwargs)

        monkeypatch.setattr(maxmin, "_equality_rows", recording)
        dense = _rows_equal_scalar(1e150, gains, noise, budgets)
        dense_walks = len(walks)
        for width in (3, 30):
            walks.clear()
            padded = _rows_equal_scalar(1e150, *_ragged([(gains, noise, budgets)], width))
            assert padded.tolist() == dense.tolist()
            # Two users' slope sums two nonzero terms in any order: the same bits.
            assert len(walks) == dense_walks
