import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from noma_crn import (
    ChannelModel,
    InfeasibleError,
    Scenario,
    admit,
    compute_sinr,
    draw_scenario,
    feasible,
    min_power_for_targets,
    run_seed,
    run_two_phase,
    solve_bisection,
    solve_waterfill,
    total_power_curve,
)
from noma_crn import maxmin
from noma_crn.model import _equality_rows, _equality_walk

from conftest import random_admitted_instance


def _assert_budget_spent(powers: np.ndarray, budget: float) -> None:
    """The budget fold's contract: the powers of k users, summed exactly with
    fractions, are within (k/2 + 1) ulp(B) of the budget B.

    The fold walks at a theta that fits, so every partial total t_n =
    fl(t_(n-1) + p_n) of its walk is at most B and rounds by at most half an
    ulp of B; t_1 = p_1 is exact. The walk's total T is thus the exact sum of
    its powers p_n plus e_0, |e_0| <= (k - 1)/2 ulp(B). The fold computes
    d = fl(B - T), 0 <= B - T <= B, with error e_1, |e_1| <= ulp(B)/2, and
    last = fl(p_k + d) with error e_2, so the folded powers sum exactly to
    B + e_1 + e_2 - e_0. Since p_k + d <= B + k/2 ulp(B) < 2B, the last
    rounding is at most half an ulp of a value below 2B: |e_2| <= ulp(B),
    one full ulp because that sum may cross into the binade above B. A last
    that rounds below 0 is set to 0; the sum is then t_(k-1) plus its
    rounding, within the same bound. In all, (k - 1)/2 + 1/2 + 1 ulps.
    """
    error = abs(sum(map(Fraction, powers.tolist())) - Fraction(budget))
    assert error <= (Fraction(len(powers), 2) + 1) * Fraction(math.ulp(budget))


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

    def test_lone_user_whose_sinr_overflows(self):
        # B*G/N = 0.1 * 1e300 / 1e-15 ~ 1e314 lies past the largest float and
        # every float fits: theta* is a finite float and the whole budget goes
        # to the user; only the achieved SINR overflows. Bisection's midpoints
        # near the float maximum must not overflow to inf, and its powers to nan.
        s = Scenario([1e300], [1e-15], [10.0], [], [], 0.1)
        with np.errstate(over="ignore"):
            b, w = solve_bisection(s, 0.1), solve_waterfill(s, 0.1)
        assert w.theta_star == sys.float_info.max
        assert math.nextafter(sys.float_info.max, 0.0) <= b.theta_star < math.inf
        for sol in (b, w):
            np.testing.assert_array_equal(sol.powers, [0.1])
            assert sol.achieved_sinr.tolist() == [math.inf]

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

    def test_infeasible_message_names_the_callers_budget(self, two_equal_users):
        budget = np.float64(2.9)
        for solve in (solve_waterfill, solve_bisection):
            with pytest.raises(InfeasibleError, match=re.escape(f"budget {budget!r} W")):
                solve(two_equal_users, budget)

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
                _assert_budget_spent(sol.powers, budget)
                assert sol.theta_star >= float(np.min(scenario.su_thresholds))
                assert np.all(sol.powers >= 0.0)

    def test_iteration_count_matches_interval_halving(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            scenario, budget = random_admitted_instance(rng)
            eps = float(10 ** rng.uniform(-8, -4))
            sol = solve_bisection(scenario, budget, eps)
            # The bracket: the smallest threshold, and a few floats past the
            # cheapest user's lone-user bound B/c_n (or the threshold).
            lo = float(np.min(scenario.su_thresholds))
            hi = max(budget / float(np.min(scenario.noise_over_gain)), lo) * maxmin._BRACKET_TOP
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
#: near them (worst seen: 15, on the extreme-input rows with spread thresholds).
MAX_WALKS_PER_SOLVE = 20

#: The same bound for budgets equal to S at the thresholds or 1e-12 above it.
#: There the floored users can carry so small a share of S that S moves by
#: one ulp only every ~1e5 floats; the last fit gallops across that flat run
#: from a stride of one float and bisects back, about twice log2 of its width
#: (worst seen: 16 over 2,000 solves).
MAX_WALKS_NEAR_ZERO_SLACK = 30


def _random_instance(rng, levels_db=(0.0, 3.0, 6.0, 10.0, 20.0)) -> tuple[Scenario, float]:
    """1-40 users, thresholds from ``levels_db`` ({0, 3, 6, 10, 20} dB by
    default), per-user or common noise, and the total power at the thresholds."""
    n = int(rng.integers(1, 41))
    gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
    if rng.random() < 0.5:
        noise = 10 ** rng.uniform(-16, -12, n)
    else:
        noise = np.full(n, 10 ** rng.uniform(-16, -12))
    thresholds = 10 ** (rng.choice(levels_db, n) / 10)
    scenario = Scenario(gains, noise, thresholds, [], [], 1.0)
    required, _ = min_power_for_targets(scenario, scenario.su_thresholds)
    return scenario, required


class TestBracket:
    def test_top_equals_the_row_kernels_bitwise(self):
        # Costs and budgets log-uniform over 1e-300..1e300, so many tops
        # overflow to inf and some lone-user bounds underflow below the
        # thresholds: the scalar top equals _waterfill_rows' array expression
        # bit for bit, and none warns.
        rng = np.random.default_rng(11)
        overflowed = floored = 0
        for _ in range(300):
            n = int(rng.integers(1, 31))
            costs = 10 ** rng.uniform(-300, 300, (1, n))
            thresholds = 10 ** rng.uniform(-2, 3, n)
            budgets = 10 ** rng.uniform(-300, 300, 1)
            lo = np.full(1, thresholds.min())
            with np.errstate(all="ignore"):
                cheapest = np.min(costs, axis=1, initial=math.inf, where=costs > 0.0)
                expected = float((np.maximum(budgets / cheapest, lo) * maxmin._BRACKET_TOP)[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bottom, top = maxmin._bracket(thresholds.tolist(), costs[0].tolist(),
                                              float(budgets[0]))
            assert bottom == lo[0]
            assert top.hex() == expected.hex()
            overflowed += top == math.inf
            floored += top == bottom * maxmin._BRACKET_TOP
        assert overflowed and floored


class TestWaterfillRoot:
    """theta* is the largest float with S(theta*) <= budget on every branch, in
    a bounded number of walks (MAX_WALKS_PER_SOLVE with slack,
    MAX_WALKS_NEAR_ZERO_SLACK without)."""

    def _check_canonical(self, scenario, budget, walks) -> int:
        """Check one water-filling solve; returns the walks it ran."""
        walks.clear()
        w = solve_waterfill(scenario, budget)
        count = len(walks)
        theta = w.theta_star
        assert feasible(scenario, theta, budget)
        # Also where the next float is the bracket top: the top never fits.
        assert not feasible(scenario, math.nextafter(theta, math.inf), budget)
        b = solve_bisection(scenario, budget)
        assert abs(theta - b.theta_star) <= 2 * maxmin.DEFAULT_EPSILON + 1e-12 * theta
        for sol in (w, b):
            _assert_budget_spent(sol.powers, budget)
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
        # The top of the bracket, just past the lone-user bound, is ~1e20 and
        # S there overflows to inf. At -20 dB the first Newton step from the
        # bottom also lands where S overflows, and the root must fall back to
        # midpoints of the bracket's float bit patterns until S is finite again.
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
        # a step leaves the bracket, so the bit-pattern midpoint takes over.
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

    @pytest.mark.parametrize("decades", [0.0, 40.0])
    def test_extreme_inputs_within_the_walk_cap(self, decades, monkeypatch):
        # The extreme-input rows, at the row's threshold (0 decades) or with
        # per-user thresholds spread up to 40 decades below it: brackets whose
        # top overflows to inf, and probes whose S(theta) or slope overflows.
        # Left out are rows whose budget is within a factor k of the largest
        # float, where the slope overflows near the root, and lone users whose
        # SINR overflows, whose theta* is the largest float.
        rng = np.random.default_rng(37)
        walks = _record_walks(monkeypatch)
        checked = 0
        for threshold, gains, noise, budgets in _extreme_blocks():
            k = gains.shape[1]
            for row_gains, budget in zip(gains, budgets.tolist()):
                thresholds = threshold * 10 ** rng.uniform(-decades, 0.0, k)
                walks.clear()
                sol = solve_waterfill(Scenario(row_gains, noise, thresholds, [], [], 1.0), budget)
                if k * budget < sys.float_info.max and np.isfinite(sol.achieved_sinr).all():
                    assert sol.evaluations == len(walks) <= MAX_WALKS_PER_SOLVE
                    checked += 1
        assert checked > 800

    def test_bracket_top_never_fits(self):
        # The search may end on the float just below the bracket top, so the
        # top itself must not fit, also for a lone user whose bound fits and
        # for one whose bound rounds below its threshold (zero slack).
        rng = np.random.default_rng(12)
        for _ in range(1000):
            scenario, required = _random_instance(rng)
            lone = scenario.prefix(1)
            for s, need in ((scenario, required),
                            (lone, min_power_for_targets(lone, lone.su_thresholds)[0])):
                for budget in (need, need * 10 ** rng.uniform(0.0, 3.0)):
                    _, top = maxmin._bracket(s.su_thresholds.tolist(),
                                             s.noise_over_gain.tolist(), budget)
                    assert not feasible(s, top, budget)

    def test_fewer_walks_than_bisection(self, monkeypatch):
        # Bisection runs the threshold check, its fixed halvings, the secant's
        # two ends and the powers' walk: 1 + iterations + 2 + 1 walks.
        rng = np.random.default_rng(8)
        walks = _record_walks(monkeypatch)
        for _ in range(20):
            scenario, budget = random_admitted_instance(rng, max_users=12)
            walks.clear()
            b = solve_bisection(scenario, 2.0 * budget)
            bisection_walks = len(walks)
            assert bisection_walks == 1 + b.iterations + 2 + 1
            walks.clear()
            solve_waterfill(scenario, 2.0 * budget)
            assert len(walks) <= MAX_WALKS_PER_SOLVE < bisection_walks

    def test_evaluations_count_the_walks(self, monkeypatch):
        # Each solver counts its own walks where it runs them; the count
        # equals a wrapped _equality_walk's, over the families above: budgets
        # with slack, zero and 1e-12 slack, and one user.
        rng = np.random.default_rng(9)
        walks = _record_walks(monkeypatch)
        for _ in range(300):
            scenario, required = _random_instance(rng)
            for budget in (required, required * (1.0 + 1e-12),
                           required * 10 ** rng.uniform(0.0, 3.0)):
                for solve in (solve_bisection, solve_waterfill):
                    walks.clear()
                    sol = solve(scenario, budget)
                    assert sol.evaluations == len(walks)
                    if solve is solve_bisection:
                        assert sol.evaluations == 1 + sol.iterations + 2 + 1


def _record_levels(monkeypatch) -> list:
    """(lo, hi, level) of every secant step bisection takes, in call order."""
    levels = []
    secant_level = maxmin._secant_level

    def recording(thresholds, over_gain, budget, lo, hi):
        levels.append((lo, hi, secant_level(thresholds, over_gain, budget, lo, hi)))
        return levels[-1][2]

    monkeypatch.setattr(maxmin, "_secant_level", recording)
    return levels


class TestBisectionFinish:
    """Bisection ends its halvings with one secant step through S at the
    final bracket's ends; the budget fold then closes the roundoff-level rest."""

    @staticmethod
    def _solve(scenario, budget, levels, epsilon=maxmin.DEFAULT_EPSILON):
        """Bisection under warnings-as-errors; checks the step's level lies in
        its bracket, whose bottom is theta_star, and that the powers spend the
        budget. Returns the solution and the step's (lo, hi, level)."""
        levels.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_bisection(scenario, budget, epsilon)
        (lo, hi, level), = levels
        assert lo <= level <= hi
        assert lo == sol.theta_star
        assert abs(math.fsum(sol.powers.tolist()) - budget) <= 1e-12 * budget
        return sol, (lo, hi, level)

    def test_matches_waterfill_sinr(self):
        # Mixed thresholds, 5-30 users and 0-2 PUs, as online allocations
        # see them. A finish that only folds the residual into the weakest
        # user is up to 1.5e-6 off water-filling's SINRs on these cells, and
        # beyond 1e-9 on 278 of the 297 that admit anyone; with the step, the
        # two solvers' SINRs agree to roundoff (8.5e-13).
        rng = np.random.default_rng(21)
        solved = 0
        for i in range(300):
            n = int(rng.integers(5, 31))
            model = ChannelModel(num_sus=n, num_pus=int(rng.integers(0, 3)))
            scenario = draw_scenario(model, run_seed(21, 0, i),
                                     rng.choice([0.0, 3.0, 6.0, 10.0, 20.0], n))
            b = run_two_phase(scenario, solver="bisection").maxmin
            w = run_two_phase(scenario, solver="waterfill").maxmin
            if b is None:
                continue
            np.testing.assert_allclose(b.achieved_sinr, w.achieved_sinr, rtol=1e-9, atol=0.0)
            solved += 1
        assert solved > 200

    def test_zero_halvings(self, monkeypatch):
        # A tolerance wider than the bracket runs no halving, and the step
        # spans the whole bracket, from the thresholds to just past the
        # lone-user bound. By convexity it still lands where S fits. Past a
        # few users S at the bracket's top overflows, and the step keeps lo.
        rng = np.random.default_rng(22)
        levels = _record_levels(monkeypatch)
        stepped = 0
        for _ in range(200):
            scenario, _ = _random_instance(rng)
            scenario = scenario.prefix(min(3, scenario.n_sus))
            required = min_power_for_targets(scenario, scenario.su_thresholds)[0]
            budget = required * 10 ** rng.uniform(0.0, 3.0)
            sol, (lo, hi, level) = self._solve(scenario, budget, levels, epsilon=1e300)
            assert sol.iterations == 0 and sol.evaluations == 4
            assert total_power_curve(scenario, level) <= budget * (1.0 + 1e-12)
            stepped += level > lo
        assert stepped > 150
        for threshold_db in (0.0, -20.0):
            for n in (30, 60):
                gains = np.sort(10 ** rng.uniform(2, 6, n))[::-1]
                scenario = Scenario(gains, np.full(n, 1e-15), np.full(n, 10 ** (threshold_db / 10)),
                                    [], [], 0.1)
                sol, (lo, hi, level) = self._solve(scenario, 0.1, levels, epsilon=1e300)
                assert sol.iterations == 0
                assert total_power_curve(scenario, hi) == math.inf and level == lo

    def test_lone_user_step_is_exact(self, monkeypatch):
        # S(theta) = theta * N/G is linear, so the step lands on the root: S
        # there is the budget to roundoff. The bracket's top never fits, so
        # every solve takes the step, and the fold ends the user at SINR
        # B*G/N, the lone-user bound from the gains and noise.
        rng = np.random.default_rng(23)
        levels = _record_levels(monkeypatch)
        for _ in range(300):
            scenario, _ = _random_instance(rng)
            lone = scenario.prefix(1)
            need = min_power_for_targets(lone, lone.su_thresholds)[0]
            budget = need * 10 ** rng.uniform(0.0, 3.0)
            sol, (lo, _, level) = self._solve(lone, budget, levels)
            np.testing.assert_allclose(sol.achieved_sinr, budget * lone.su_gains / lone.su_noise,
                                       rtol=1e-12)
            assert level > lo
            assert total_power_curve(lone, level) == pytest.approx(budget, rel=1e-12)

    def test_bracket_of_a_gain_past_the_float_range(self):
        # B*G = 1e310 overflows, but the lone-user bound B/c_n = 1e10 does
        # not: the halvings run over [1, 1e10 * (1 + 2**-50)), about 54 of
        # them, where a bracket up to the largest float takes over 1,000.
        scenario = Scenario([1e300], [1e300], [1.0], [], [], 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = run_two_phase(scenario, solver="bisection").maxmin
        assert sol.theta_star == 1e10
        _assert_budget_spent(sol.powers, 1e10)
        assert sol.evaluations <= 60

    def test_extreme_inputs(self, monkeypatch):
        # The extreme-input rows of up to three users, each solved with its
        # budget as a float: thresholds up to 1e200 and budgets up to 1e300
        # times what they cost, so the step's walks run up to the top of the
        # float range. Bisection runs ~1,000 halvings on these brackets.
        levels = _record_levels(monkeypatch)
        solved = stepped = 0
        for threshold, gains, noise, budgets in _extreme_blocks():
            k = gains.shape[1]
            if k > 3:
                continue
            for row_gains, budget in zip(gains, budgets.tolist()):
                scenario = Scenario(row_gains, noise, np.full(k, threshold), [], [], 1.0)
                _, (lo, _, level) = self._solve(scenario, budget, levels)
                stepped += level > lo
                solved += 1
        assert solved > 100 and stepped > 20

    def test_wide_epsilon_on_extreme_inputs(self, monkeypatch):
        # The same rows with a tolerance far wider than theta*'s scale: no
        # halving runs, the level stays near the thresholds, and the fold
        # hands the weakest user most of the budget, whatever the level. Its
        # SINR can then overflow; the lone-user bound caps every SINR, so
        # only rows whose bound is in the top half of the float range may
        # reach inf, and none warns. Guarded on the level and the thresholds
        # instead, 5 of these rows warned (threshold 5.7e61, budget 5.6e240).
        levels = _record_levels(monkeypatch)
        solved = overflowed = 0
        for threshold, gains, noise, budgets in _extreme_blocks():
            k = gains.shape[1]
            if k > 3:
                continue
            for row_gains, budget in zip(gains, budgets.tolist()):
                scenario = Scenario(row_gains, noise, np.full(k, threshold), [], [], 1.0)
                sol, _ = self._solve(scenario, budget, levels, epsilon=1e300)
                if not np.isfinite(sol.achieved_sinr).all():
                    overflowed += 1
                    bound = budget / float(np.min(scenario.noise_over_gain))
                    assert bound > sys.float_info.max / 2
                solved += 1
        assert solved > 100 and overflowed > 0


def _common_threshold_block(rng, rows: int, k: int, threshold: float):
    """``rows`` admitted sets of ``k`` users at one threshold, as the sweeps
    hand them to phase 2: gains sorted per row, per-user noise, and the total
    power at the threshold per row."""
    gains = np.sort(10 ** rng.uniform(-8, -3, (rows, k)), axis=1)[:, ::-1].copy()
    noise = 10 ** rng.uniform(-16, -12, (rows, k))
    return gains, noise, _equality_rows(threshold, noise / gains)[2]


def _solve_rows(threshold: float, gains, noise, budgets):
    """_waterfill_rows on the block of costs N/G of these gains and noise
    (broadcasting against them), with cost 0 where a gain is 0, the padding."""
    noise = np.broadcast_to(noise, gains.shape)
    costs = np.divide(noise, gains, out=np.zeros(gains.shape), where=gains > 0.0)
    return maxmin._waterfill_rows(threshold, costs, budgets)


def _rows_equal_scalar(threshold: float, gains, noise, budgets) -> np.ndarray:
    """Check _waterfill_rows against solve_waterfill row by row, bit for bit;
    returns the rows' theta_star. A row's users are its nonzero gains, which
    end the row; its padded columns must get zero power."""
    theta, powers = _solve_rows(threshold, gains, noise, budgets)
    noise = np.broadcast_to(noise, gains.shape)
    for r, budget in enumerate(budgets.tolist()):
        k = np.count_nonzero(gains[r])
        users = slice(gains.shape[1] - k, None)
        scenario = Scenario(gains[r, users], noise[r, users], np.full(k, threshold), [], [], 1.0)
        solution = solve_waterfill(scenario, budget)
        assert theta[r] == solution.theta_star
        assert powers[r].tolist() == [0.0] * (gains.shape[1] - k) + solution.powers.tolist()
    return theta


def _assert_rows_spend_budgets(gains, powers, budgets) -> None:
    """:func:`_assert_budget_spent` on each row's own users, its nonzero gains."""
    for row_gains, row_powers, budget in zip(gains, powers, budgets.tolist()):
        _assert_budget_spent(row_powers[len(row_gains) - np.count_nonzero(row_gains):], budget)


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


def _count_row_walks(monkeypatch) -> list:
    """One entry per row-wise walk (``_equality_rows``) the row kernel runs."""
    walks = []

    def recording(*args, **kwargs):
        walks.append(1)
        return _equality_rows(*args, **kwargs)

    monkeypatch.setattr(maxmin, "_equality_rows", recording)
    return walks


#: Row-wise walks per _waterfill_rows block, from the search's structure:
#: - one walk at the estimate, the closed-form root, a few floats from theta*;
#:   it closes one end of each row's bracket there;
#: - none for the Newton step: it takes that walk's total and slope, and from
#:   a few floats away it lands within float resolution of theta*;
#: - two last-fit probes: the step's theta, kept one float inside the
#:   bracket, and the float next to it across theta*;
#: - the walk for the powers at theta*.
WALKS_PER_BLOCK = 5


def _overflowing_blocks():
    """The blocks of test_overflowing_top_of_bracket and of
    test_bit_patterns_near_the_top_of_the_float_range, as (threshold, gains,
    noise, budgets)."""
    for threshold_db in (0.0, -20.0):
        for k in (30, 60):
            rng = np.random.default_rng(k)
            gains = np.sort(10 ** rng.uniform(2, 6, (8, k)), axis=1)[:, ::-1].copy()
            yield 10 ** (threshold_db / 10), gains, np.full(k, 1e-15), np.full(8, 0.1)
    rng = np.random.default_rng(33)
    gains = np.sort(10 ** rng.uniform(3, 6, (12, 2)), axis=1)[:, ::-1].copy()
    yield 1e150, gains, 10 ** rng.uniform(-298, -295, (12, 2)), 10 ** rng.uniform(295, 307, 12)


def _extreme_blocks():
    """Blocks with thresholds from 1e-30 to 1e200, a common noise from 1e-300
    to 1e10 and budgets up to 1e300 times what the threshold costs, the finite
    ones kept, as (threshold, gains, noise, budgets): 814 rows."""
    rng = np.random.default_rng(36)
    for k in list(range(1, 61)) * 5:
        threshold = 10 ** rng.uniform(-30.0, 200.0)
        gains = np.sort(10 ** rng.uniform(-8, -3, (12, k)), axis=1)[:, ::-1].copy()
        noise = np.full(k, 10 ** rng.uniform(-300.0, 10.0))
        with np.errstate(over="ignore"):
            budgets = (_equality_rows(threshold, noise / gains)[2]
                       * 10 ** rng.uniform(0.0, 300.0, 12))
        keep = np.isfinite(budgets)
        if keep.any():
            yield threshold, gains[keep], noise, budgets[keep]


def _walk_count_blocks():
    """test_random_blocks' blocks with zero-slack rows too, as (threshold,
    gains, noise, budgets)."""
    rng = np.random.default_rng(31)
    for k in range(1, 31):
        threshold = 10 ** (rng.choice([0.0, 3.0, 6.0, 10.0, 20.0, 30.0]) / 10)
        gains, noise, required = _common_threshold_block(rng, 24, k, threshold)
        budgets = required * 10 ** rng.uniform(0.0, 3.0, 24)
        budgets[::6] = required[::6] * (1.0 + 1e-12)
        budgets[3::6] = required[3::6]
        yield threshold, gains, noise, budgets


class TestWaterfillRows:
    """The sweeps' phase 2 solves a block of rows whose users share one
    threshold at once; every row must equal solve_waterfill bit for bit."""

    def test_walks_per_block(self, monkeypatch):
        # The blocks of test_random_blocks: k = 1 to 30 users, budgets from
        # x(1 + 1e-12) to x1e3, here with zero-slack rows too. A search from
        # the threshold took 8.4 walks a block there, up to 11. Every row
        # equals solve_waterfill bit for bit and spends its budget to the
        # fold's rounding bound.
        walks = _count_row_walks(monkeypatch)
        for threshold, gains, noise, budgets in _walk_count_blocks():
            walks.clear()
            _, powers = _solve_rows(threshold, gains, noise, budgets)
            assert len(walks) <= WALKS_PER_BLOCK
            _assert_rows_spend_budgets(gains, powers, budgets)
            _rows_equal_scalar(threshold, gains, noise, budgets)

    def test_search_from_the_threshold(self, monkeypatch):
        # The same blocks with every estimate at the bracket's bottom, the
        # threshold: one Newton step from there is far from theta*, and the
        # last fit, from wherever it ends, still gives every row
        # solve_waterfill's answer bit for bit.
        monkeypatch.setattr(maxmin, "_estimate_rows",
                            lambda over_gain, exponents, budgets, lo, hi: lo)
        for threshold, gains, noise, budgets in _walk_count_blocks():
            _rows_equal_scalar(threshold, gains, noise, budgets)

    def test_estimate_never_costs_walks(self, monkeypatch):
        # Where S(theta) overflows at the top of the bracket or theta* is
        # near the top of the float range, the estimate takes no more walks
        # than the same search started from the threshold.
        # Every row also spends its budget to the fold's rounding bound.
        walks = _count_row_walks(monkeypatch)
        blocks = list(_overflowing_blocks())
        estimated = []
        for threshold, gains, noise, budgets in blocks:
            walks.clear()
            _, powers = _solve_rows(threshold, gains, noise, budgets)
            estimated.append(len(walks))
            _assert_rows_spend_budgets(gains, powers, budgets)
        monkeypatch.setattr(maxmin, "_estimate_rows", lambda over_gain, exponents, budgets,
                            lo, hi: lo)
        for block, count in zip(blocks, estimated):
            walks.clear()
            _solve_rows(*block)
            assert count <= len(walks)

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

    def test_extreme_inputs(self, monkeypatch):
        # Thresholds from 1e-30 to 1e200, a common noise from 1e-300 to 1e10
        # and budgets up to 1e300 times what the threshold costs, the finite
        # ones kept. The estimate's polynomial overflows on many rows, which
        # then start at the threshold, far from theta*: there one Newton step
        # and the last fit alone must end on the scalar solver's theta*.
        estimates = []
        estimate_rows = maxmin._estimate_rows

        def recording(*args):
            estimates.append(estimate_rows(*args))
            return estimates[-1]

        monkeypatch.setattr(maxmin, "_estimate_rows", recording)
        rows = far = 0
        for threshold, gains, noise, budgets in _extreme_blocks():
            estimates.clear()
            theta = _rows_equal_scalar(threshold, gains, noise, budgets)
            _, powers = _solve_rows(threshold, gains, noise, budgets)
            _assert_rows_spend_budgets(gains, powers, budgets)
            rows += len(budgets)
            far += np.count_nonzero(np.abs(theta.view(np.int64) - estimates[0].view(np.int64))
                                    > 2 ** 20)
        assert rows > 500 and far > 50

    def test_numpy_budgets_solve_in_float_arithmetic(self):
        # The extreme-input rows solved one at a time with the np.float64
        # budget the block holds: a probe whose S(theta) overflows does so
        # in float arithmetic, with no numpy warning (an error here), and the
        # bits are those of a float budget. Water-filling warned on 111 of
        # these rows when it probed in numpy scalars, the first at k = 2,
        # threshold 5.7e61, budget 4.5e242. Bisection runs ~1,000 halvings on
        # these brackets, so it solves the rows of up to three users only.
        solved = 0
        for threshold, gains, noise, budgets in _extreme_blocks():
            k = gains.shape[1]
            solvers = (solve_waterfill, solve_bisection) if k <= 3 else (solve_waterfill,)
            for row_gains, budget in zip(gains, budgets):
                scenario = Scenario(row_gains, noise, np.full(k, threshold), [], [], 1.0)
                for solve in solvers:
                    got, want = solve(scenario, budget), solve(scenario, float(budget))
                    assert got.theta_star == want.theta_star
                    assert got.powers.tolist() == want.powers.tolist()
                    solved += 1
        assert solved > 814

    @pytest.mark.parametrize("slack", [0.0, 1e-12])
    def test_near_zero_slack(self, slack):
        # Budget == S at the threshold or 1e-12 above it: often the floats
        # just above the threshold fit too, and theta* is the last of them.
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
        # The top of the bracket, just past the lone-user bound, is ~1e20 and
        # S there overflows to inf; at -20 dB Newton's first step overflows too.
        rng = np.random.default_rng(k)
        gains = np.sort(10 ** rng.uniform(2, 6, (8, k)), axis=1)[:, ::-1].copy()
        threshold = 10 ** (threshold_db / 10)
        noise, budgets = np.full(k, 1e-15), np.full(8, 0.1)
        bound = np.max(0.1 * gains / noise, axis=1)
        with np.errstate(over="ignore"):
            assert np.all(_equality_rows(bound, noise / gains)[2] == math.inf)
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
            fit = maxmin._last_fit_rows(over_gain, budgets, lo, np.full(rows, math.inf), lo)
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
                overflowing.append(_equality_rows(bound, noise / gains)[2])
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
        # only the padding's exponents overflow. Masked out, they leave the
        # estimate and the Newton step as they were; unmasked, 0 * inf is nan
        # in the estimate, every row starts from the threshold, and the step
        # from there leaves the last fit ~6x the walks.
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
