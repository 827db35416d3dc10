import math

import numpy as np
import pytest

from noma_crn import (
    CapacityError,
    GridSpec,
    Scenario,
    admit,
    oracle_max_admitted,
    oracle_max_min_sinr,
    required_prefix_power,
    solve_waterfill,
)

import noma_crn.oracle as oracle_mod

from conftest import random_admitted_instance


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1.0)
        with pytest.raises(ValueError):
            GridSpec(10, 0.0)

    @pytest.mark.parametrize("budget", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            GridSpec(5, budget)

    def test_step(self):
        assert GridSpec(11, 1.0).step == pytest.approx(0.1)


class TestOracleMaxAdmitted:
    def test_three_equal_users_half_watt(self):
        s = Scenario([1.0] * 3, [0.1] * 3, [1.0] * 3, [], [], 10.0)
        assert oracle_max_admitted(s, 0.5) == 2

    def test_everyone_fits_with_enough_budget(self):
        rng = np.random.default_rng(2)
        gains = np.sort(10 ** rng.uniform(-8, -3, 5))[::-1]
        s = Scenario(gains, np.full(5, 1e-14), np.full(5, 3.0), [], [], 1.0)
        assert oracle_max_admitted(s, required_prefix_power(s, 5)) == 5

    def test_budget_below_cheapest_user_admits_nobody(self):
        s = Scenario([1.0, 0.5], [1.0, 1.0], [1.0, 1.0], [], [], 10.0)
        assert oracle_max_admitted(s, 0.5) == 0

    # Both admission counts share one budget check.
    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("count", [oracle_max_admitted,
                                       lambda s, b: admit(s, b).admitted_count],
                             ids=["oracle", "admit"])
    def test_bad_budget_rejected(self, budget, count):
        s = Scenario([1.0, 0.5], [1.0, 1.0], [1.0, 1.0], [], [], 10.0)
        with pytest.raises(ValueError, match="budget must be strictly positive and finite"):
            count(s, budget)

    def test_capacity_limit(self):
        n = 13
        s = Scenario(np.full(n, 1.0), np.full(n, 1.0), np.full(n, 1.0), [], [], 1.0)
        with pytest.raises(CapacityError):
            oracle_max_admitted(s, 1.0)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
            s = Scenario(gains, 10 ** rng.uniform(-15, -12, n),
                         10 ** (rng.uniform(0, 20, n) / 10), [], [], 1.0)
            b = 10 ** rng.uniform(-8, 0)
            assert oracle_max_admitted(s, b) <= oracle_max_admitted(s, b * 5.0)

    def test_never_below_greedy(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
            s = Scenario(gains, 10 ** rng.uniform(-15, -12, n),
                         10 ** (rng.uniform(0, 20, n) / 10), [], [], 1.0)
            budget = 10 ** rng.uniform(-8, 0)
            assert oracle_max_admitted(s, budget) >= admit(s, budget).admitted_count


class TestOracleMaxMinSinr:
    def test_two_user_quadratic_instance(self):
        s = Scenario([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 10.0)
        grid = GridSpec(2001, 7.0)
        res = oracle_max_min_sinr(s, 7.0, grid)
        expected = math.sqrt(8.0) - 1.0
        assert res.value is not None
        assert res.value <= expected + 1e-12
        assert expected - res.value <= res.resolution

    def test_zero_slack_recovers_common_threshold(self):
        s = Scenario([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 10.0)
        res = oracle_max_min_sinr(s, 3.0, GridSpec(301, 3.0))
        assert res.value == pytest.approx(1.0, abs=res.resolution)

    def test_single_user_boundary_point(self):
        s = Scenario([2.0], [1.0], [1.0], [], [], 10.0)
        res = oracle_max_min_sinr(s, 5.0, GridSpec(11, 5.0))
        assert res.value == pytest.approx(10.0, rel=1e-12)  # budget on the last grid point

    def test_infeasible_sentinel_when_grid_too_coarse(self):
        # Thresholds need fine powers; a 2-point grid (0 or everything)
        # cannot satisfy both users at once.
        s = Scenario([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 10.0)
        res = oracle_max_min_sinr(s, 3.0, GridSpec(2, 3.0))
        assert res.value is None

    def test_capacity_limit(self):
        s = Scenario([1.0] * 4, [1.0] * 4, [1.0] * 4, [], [], 10.0)
        with pytest.raises(CapacityError):
            oracle_max_min_sinr(s, 1.0, GridSpec(5, 1.0))
        with pytest.raises(ValueError):
            oracle_max_min_sinr(Scenario([], [], [], [], [], 1.0), 1.0, GridSpec(5, 1.0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_size_cap(self, monkeypatch, n):
        # One point per axis past the cap is refused before any array is
        # built; at the cap itself the search runs (checked on a small cap).
        s = Scenario([1.0] * n, [1.0] * n, [0.1] * n, [], [], 10.0)
        cap = oracle_mod.MAX_GRID_ARRAY_POINTS
        side = cap if n == 1 else math.isqrt(cap)
        with pytest.raises(CapacityError, match="cap"):
            oracle_max_min_sinr(s, 1.0, GridSpec(side + 1, 1.0))
        monkeypatch.setattr(oracle_mod, "MAX_GRID_ARRAY_POINTS", 41 ** min(n, 2))
        assert oracle_max_min_sinr(s, 1.0, GridSpec(41, 1.0)).value is not None
        with pytest.raises(CapacityError, match="cap"):
            oracle_max_min_sinr(s, 1.0, GridSpec(42, 1.0))

    def test_monotone_in_budget(self):
        s = Scenario([1.0, 0.8], [1.0, 1.0], [1.0, 1.0], [], [], 100.0)
        v1 = oracle_max_min_sinr(s, 5.0, GridSpec(501, 5.0)).value
        v2 = oracle_max_min_sinr(s, 8.0, GridSpec(501, 8.0)).value
        assert v1 is not None and v2 is not None and v2 >= v1

    def test_two_sided_agreement_with_solver_on_random_instances(self):
        rng = np.random.default_rng(99)
        checked = 0
        tries = 0
        while checked < 15 and tries < 200:
            tries += 1
            scenario, _ = random_admitted_instance(rng, max_users=3, thr_db_range=(0, 12))
            if scenario.n_sus < 2:
                continue
            budget = 10 ** rng.uniform(0.5, 1.0) * required_threshold_total(scenario)
            grid = GridSpec(801 if scenario.n_sus == 2 else 121, budget)
            res = oracle_max_min_sinr(scenario, budget, grid)
            if res.value is None:
                continue
            if res.value < np.max(scenario.su_thresholds) + 2 * res.resolution:
                continue  # resolution bound needs threshold slack at the optimum
            sol = solve_waterfill(scenario, budget)
            assert sol.theta_star >= res.value - 1e-9 * res.value
            assert sol.theta_star - res.value <= res.resolution
            checked += 1
        assert checked == 15


def required_threshold_total(scenario) -> float:
    from noma_crn import min_power_for_targets

    total, _ = min_power_for_targets(scenario, scenario.su_thresholds)
    return total
