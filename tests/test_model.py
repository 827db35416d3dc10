import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_crn import Scenario, compute_sinr, power_budget, read_scenario, sort_users

positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestSortUsers:
    def test_reorders_jointly_and_records_permutation(self):
        s = sort_users([1.0, 3.0, 2.0], [10.0, 30.0, 20.0], [0.1, 0.3, 0.2], p_max=1.0)
        np.testing.assert_array_equal(s.su_gains, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(s.su_noise, [30.0, 20.0, 10.0])
        np.testing.assert_array_equal(s.su_thresholds, [0.3, 0.2, 0.1])
        np.testing.assert_array_equal(s.order, [1, 2, 0])

    def test_ties_keep_original_order(self):
        s = sort_users([2.0, 2.0], [1.0, 2.0], [1.0, 1.0], p_max=1.0)
        np.testing.assert_array_equal(s.order, [0, 1])
        np.testing.assert_array_equal(s.su_noise, [1.0, 2.0])

    def test_singleton(self):
        s = sort_users([5.0], [1.0], [1.0], p_max=1.0)
        np.testing.assert_array_equal(s.su_gains, [5.0])
        np.testing.assert_array_equal(s.order, [0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            sort_users([1.0, 2.0], [1.0], [1.0, 1.0], p_max=1.0)

    @given(gains=st.lists(positive, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_inverse_permutation_restores_original(self, gains):
        n = len(gains)
        noise = [1.0 + i for i in range(n)]
        s = sort_users(gains, noise, [1.0] * n, p_max=1.0)
        np.testing.assert_array_equal(s.to_original_order(s.su_gains), gains)
        np.testing.assert_array_equal(s.to_original_order(s.su_noise), noise)


class TestScenarioValidation:
    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Scenario([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [], [], 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_nonpositive_quantities_rejected(self, bad):
        with pytest.raises(ValueError):
            Scenario([bad], [1.0], [1.0], [], [], 1.0)
        with pytest.raises(ValueError):
            Scenario([1.0], [1.0], [1.0], [], [], bad)

    def test_pu_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Scenario([1.0], [1.0], [1.0], [1.0, 2.0], [1.0], 1.0)

    def test_empty_scenario_is_legal(self):
        s = Scenario([], [], [], [], [], 1.0)
        assert s.n_sus == 0
        assert compute_sinr(s, []).shape == (0,)
        assert power_budget(s) == 1.0

    def test_prefix_restricts_users_keeps_pus(self):
        s = sort_users([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0],
                       pu_gains=[0.5], pu_interference_limits=[1.0], p_max=4.0)
        sub = s.prefix(2)
        np.testing.assert_array_equal(sub.su_gains, [3.0, 2.0])
        np.testing.assert_array_equal(sub.su_thresholds, [2.0, 3.0])
        assert sub.n_pus == 1 and sub.p_max == 4.0
        with pytest.raises(ValueError):
            s.prefix(4)

    @pytest.mark.parametrize("count", [0, 1, 3, 4])
    def test_prefix_equals_validated_scenario_of_the_slices(self, count):
        s = sort_users([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                       pu_gains=[0.5, 0.25], pu_interference_limits=[1.0, 2.0], p_max=4.0)
        sub = s.prefix(count)
        ref = Scenario(s.su_gains[:count], s.su_noise[:count], s.su_thresholds[:count],
                       s.pu_gains, s.pu_interference_limits, s.p_max,
                       order=np.argsort(np.argsort(s.order[:count])))
        assert sub.p_max == ref.p_max
        for field in ("su_gains", "su_noise", "su_thresholds", "pu_gains",
                      "pu_interference_limits", "order"):
            got, want = getattr(sub, field), getattr(ref, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable, field


@pytest.mark.parametrize("call, message", [
    (lambda tmp: Scenario([[1.0]], [1.0], [1.0], [], [], 1.0), "one-dimensional"),
    (lambda tmp: Scenario([1.0, 1.0], [1.0], [1.0, 1.0], [], [], 1.0), "equal length"),
    (lambda tmp: Scenario([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 1.0, order=[0, 0]),
     "permutation"),
    # N/G = 1e-200/1e200 underflows to 0: a user that costs nothing has no SINR.
    (lambda tmp: Scenario([1e200, 1e-10], [1e-200, 1e-15], [1.0, 1.0], [], [], 1.0),
     "underflow"),
    (lambda tmp: sort_users([1.0], [1.0], [1.0], p_max=1.0).to_original_order([1.0, 2.0]),
     "length"),
    (lambda tmp: compute_sinr(Scenario([1.0], [1.0], [1.0], [], [], 1.0), [-1.0]),
     "non-negative"),
    (lambda tmp: compute_sinr(Scenario([1.0], [1.0], [1.0], [], [], 1.0), [np.inf]), "finite"),
    (lambda tmp: read_scenario(str(tmp / "missing.txt")), "cannot read"),
], ids=["two-dimensional", "unequal-su-lengths", "order-not-permutation", "zero-cost",
        "original-order-length", "negative-power", "infinite-power", "missing-file"])
def test_checks_refuse_bad_arguments(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


class TestComputeSinr:
    def test_single_user_direct_substitution(self):
        s = Scenario([1.0], [1.0], [1.0], [], [], 1.0)
        np.testing.assert_array_equal(compute_sinr(s, [1.0]), [1.0])

    def test_interference_only_from_better_gain_users(self):
        s = Scenario([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 1.0)
        np.testing.assert_allclose(compute_sinr(s, [1.0, 2.0]), [1.0, 1.0])

    def test_sinrs_past_a_product_overflow_stay_finite(self):
        # P*G = 1e310 overflows, while the SINR P/(prior + N/G) is 1e10.
        s = Scenario([1e300], [1e300], [1.0], [], [], 1e10)
        np.testing.assert_array_equal(compute_sinr(s, [1e10]), [1e10])

    def test_zero_powers_give_zero_sinr(self):
        s = Scenario([2.0, 1.0], [1.0, 3.0], [1.0, 1.0], [], [], 1.0)
        np.testing.assert_array_equal(compute_sinr(s, [0.0, 0.0]), [0.0, 0.0])

    def test_wrong_length_rejected(self):
        s = Scenario([1.0], [1.0], [1.0], [], [], 1.0)
        with pytest.raises(ValueError):
            compute_sinr(s, [1.0, 2.0])

    @given(c=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        gains = np.sort(rng.uniform(0.1, 10.0, n))[::-1]
        noise = rng.uniform(0.1, 10.0, n)
        powers = rng.uniform(0.0, 5.0, n)
        base = Scenario(gains, noise, np.ones(n), [], [], 1.0)
        scaled = Scenario(gains, c * noise, np.ones(n), [], [], 1.0)
        np.testing.assert_allclose(
            compute_sinr(scaled, c * powers), compute_sinr(base, powers), rtol=1e-12)

    def test_monotone_in_own_power_decreasing_in_earlier(self):
        s = Scenario([2.0, 1.0], [1.0, 1.0], [1.0, 1.0], [], [], 1.0)
        base = compute_sinr(s, [1.0, 1.0])
        more_own = compute_sinr(s, [1.0, 1.5])
        more_earlier = compute_sinr(s, [1.5, 1.0])
        assert more_own[1] > base[1]
        assert more_earlier[1] < base[1]
        assert more_earlier[0] > base[0]


class TestPowerBudget:
    def test_no_pus_returns_cap(self):
        s = Scenario([1.0], [1.0], [1.0], [], [], 0.1)
        assert power_budget(s) == 0.1

    def test_tightest_pu_wins(self):
        # Ratios I/g are 100 and 0.02; the tighter PU sets the budget.
        s = Scenario([1.0], [1.0], [1.0], [1e-14, 1e-10], [1e-12, 2e-12], 0.1)
        assert power_budget(s) == pytest.approx(0.02, rel=1e-12)

    def test_ratio_past_the_float_range_is_capped_without_warning(self):
        # I/g = 1e300/1e-300 overflows to inf; p_max takes its place, unwarned.
        s = Scenario([1.0], [1.0], [1.0], [1e-300, 1e-3], [1e300, 1.0], 0.1)
        assert power_budget(s) == 0.1

    def test_cap_binds_when_pus_are_loose(self):
        s = Scenario([1.0], [1.0], [1.0], [1e-3], [1.0], 0.1)
        assert power_budget(s) == 0.1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_never_exceeds_cap_and_extra_pu_never_raises_it(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        pu_gains = rng.uniform(1e-10, 1e-4, m)
        limits = rng.uniform(1e-13, 1e-9, m)
        p_max = rng.uniform(1e-3, 1.0)
        s = Scenario([1.0], [1.0], [1.0], pu_gains, limits, p_max)
        budget = power_budget(s)
        assert budget <= p_max
        extra = Scenario([1.0], [1.0], [1.0],
                         np.append(pu_gains, rng.uniform(1e-10, 1e-4)),
                         np.append(limits, rng.uniform(1e-13, 1e-9)), p_max)
        assert power_budget(extra) <= budget
