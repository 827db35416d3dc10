import numpy as np
import pytest

from noma_crn import Scenario, admit, power_budget, run_two_phase, sort_users


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

    def test_empty_scenario(self):
        out = run_two_phase(Scenario([], [], [], [], [], 1.0))
        assert out.admission.admitted_count == 0 and out.maxmin is None

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
