import numpy as np
import pytest

from noma_crn import (
    ChannelModel,
    Scenario,
    admit,
    admission,
    draw_scenario,
    maxmin,
    power_budget,
    run_seed,
    run_two_phase,
    solve_bisection,
    solve_waterfill,
    sort_users,
)
from noma_crn.model import _equality_walk


def cell():
    return sort_users(
        [2e-6, 8e-5, 5e-7, 1e-5], [1e-15] * 4, [6.3, 3.2, 15.8, 10.0],
        pu_gains=[3e-9], pu_interference_limits=[1e-12], p_max=0.1)


class TestRunTwoPhase:
    def test_composes_the_three_stages(self):
        scenario = cell()
        out = run_two_phase(scenario)
        assert out.budget == power_budget(scenario)
        direct = admit(scenario, out.budget)
        assert out.admission.admitted_count == direct.admitted_count
        np.testing.assert_array_equal(out.admission.powers, direct.powers)
        assert out.admission.remaining_power == direct.remaining_power
        assert out.maxmin is not None
        assert out.maxmin.solver == "waterfill"
        assert out.maxmin.powers.sum() == pytest.approx(out.budget, rel=1e-9)

    def test_solver_choice(self):
        out = run_two_phase(cell(), solver="bisection", epsilon=1e-7)
        assert out.maxmin.solver == "bisection"
        with pytest.raises(ValueError, match="solver"):
            run_two_phase(cell(), solver="magic")

    def test_no_admission_skips_phase2(self):
        # Tiny gains: even the best user cannot reach its threshold in budget.
        scenario = Scenario([1e-12], [1e-3], [10.0], [], [], 0.1)
        out = run_two_phase(scenario)
        assert out.admission.admitted_count == 0
        assert out.maxmin is None

    @pytest.mark.parametrize("scenario", [
        # P_n*G_n and G_n*sum_{j<n} P_j + N_n overflow; theta* is ~0.29.
        Scenario([1e10] * 2, [1.5e308] * 2, [1e-3] * 2, [], [], 1e298),
        # P*G = 1e310 overflows; theta* is 1e10.
        Scenario([1e300], [1e300], [1.0], [], [], 1e10),
    ], ids=["sum-of-products", "lone-user"])
    def test_sinrs_equal_theta_star_past_a_product_overflow(self, scenario):
        sol = run_two_phase(scenario).maxmin
        assert np.isfinite(sol.achieved_sinr).all()
        np.testing.assert_allclose(sol.achieved_sinr, sol.theta_star, rtol=1e-12)

    def test_empty_scenario(self):
        out = run_two_phase(Scenario([], [], [], [], [], 1.0))
        assert out.admission.admitted_count == 0 and out.maxmin is None

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("scenario", [
        Scenario([], [], [], [], [], 1.0),  # empty
        Scenario([1e-12], [1e-3], [10.0], [], [], 0.1),  # everyone rejected
        cell(),  # someone admitted
    ], ids=["empty", "all-rejected", "admitting"])
    def test_bad_epsilon_rejected_whoever_is_admitted(self, scenario, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            run_two_phase(scenario, epsilon=epsilon)

    @pytest.mark.parametrize("solver", ["bisection", "waterfill"])
    def test_validates_the_scenario_only_where_it_is_built(self, monkeypatch, solver):
        scenario = cell()
        validated = []
        original = Scenario.__post_init__

        def counting(self):
            validated.append(self)
            original(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        out = run_two_phase(scenario, solver=solver)
        assert out.maxmin is not None and out.admission.admitted_count >= 1
        assert validated == []


def _alloc_cells(seed: int, count: int):
    """Online-allocation cells: 5-30 users, 0-2 PUs, thresholds from {0, 3, 6, 10} dB."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(5, 31))
        model = ChannelModel(num_sus=n, num_pus=int(rng.integers(0, 3)))
        yield draw_scenario(model, run_seed(seed, 0, i), rng.choice([0.0, 3.0, 6.0, 10.0], n))


class TestOnePass:
    """run_two_phase runs the three stages in one pass over one set of lists,
    with phase 1's walk as phase 2's walk at the thresholds."""

    @pytest.mark.parametrize("solver, solve", [("bisection", solve_bisection),
                                               ("waterfill", solve_waterfill)])
    def test_equals_the_composed_stages(self, solver, solve):
        admitting = 0
        for scenario in _alloc_cells(22, 150):
            out = run_two_phase(scenario, solver=solver)
            budget = power_budget(scenario)
            direct = admit(scenario, budget)
            assert out.budget == budget
            got = out.admission
            assert (got.admitted_count, got.remaining_power, got.budget, got.n_users) == (
                direct.admitted_count, direct.remaining_power, direct.budget, direct.n_users)
            assert got.powers.tobytes() == direct.powers.tobytes()
            k = direct.admitted_count
            if k == 0:
                assert out.maxmin is None
                continue
            admitting += 1
            want = solve(scenario.prefix(k), budget)
            sol = out.maxmin
            assert sol.theta_star.hex() == want.theta_star.hex()
            assert sol.powers.tobytes() == want.powers.tobytes()
            assert sol.achieved_sinr.tobytes() == want.achieved_sinr.tobytes()
            assert (sol.iterations, sol.evaluations, sol.solver) == (
                want.iterations, want.evaluations, want.solver)
        assert admitting > 100

    @pytest.mark.parametrize("solver", ["bisection", "waterfill"])
    def test_walks_once_at_the_thresholds(self, monkeypatch, solver):
        # Admission's walk is phase 2's walk at the thresholds: a call runs
        # exactly the walks the solution counts, and one walk when nobody is
        # admitted.
        walks = []

        def counting(*args, **kwargs):
            walks.append(args)
            return _equality_walk(*args, **kwargs)

        monkeypatch.setattr(admission, "_equality_walk", counting)
        monkeypatch.setattr(maxmin, "_equality_walk", counting)
        for scenario in [*_alloc_cells(23, 40), Scenario([1e-12], [1e-3], [10.0], [], [], 0.1)]:
            walks.clear()
            out = run_two_phase(scenario, solver=solver)
            if out.maxmin is None:
                assert len(walks) == 1
            else:
                assert len(walks) == out.maxmin.evaluations


class TestPrefixOrderBookkeeping:
    def test_restricted_order_ranks_surviving_users(self):
        scenario = sort_users([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], p_max=1.0)
        np.testing.assert_array_equal(scenario.order, [1, 2, 0])
        sub = scenario.prefix(2)  # survivors are original users 1 and 2
        np.testing.assert_array_equal(sub.order, [0, 1])
        np.testing.assert_array_equal(sub.to_original_order(sub.su_gains), [3.0, 2.0])

    def test_restricted_order_preserves_relative_positions(self):
        scenario = sort_users([5.0, 1.0, 9.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], p_max=1.0)
        np.testing.assert_array_equal(scenario.order, [2, 0, 1])
        sub = scenario.prefix(2)  # survivors: original 2 (gain 9) and original 0 (gain 5)
        # Original user 0 precedes user 2, so within the survivors it is index 0.
        np.testing.assert_array_equal(sub.order, [1, 0])
        np.testing.assert_array_equal(sub.to_original_order(sub.su_gains), [5.0, 9.0])
