import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noma_crn.admission as admission_mod
from noma_crn import (
    Scenario,
    admit,
    compute_sinr,
    oracle_max_admitted,
    power_budget,
    required_prefix_power,
    run_two_phase,
    sort_users,
)


def equal_ratio_scenario(n, threshold, noise_over_gain, p_max=10.0):
    return Scenario([1.0] * n, [noise_over_gain] * n, [threshold] * n, [], [], p_max)


class TestAdmit:
    def test_single_user_exact_threshold_power(self):
        s = equal_ratio_scenario(1, 1.0, 0.01)
        r = admit(s, 1.0)
        assert r.admitted_count == 1
        np.testing.assert_allclose(r.powers, [0.01])
        assert r.remaining_power == pytest.approx(0.99, rel=1e-12)

    def test_doubling_requirements_stop_at_third_user(self):
        # Powers 0.1, 0.2, 0.4 double; only two fit in 0.5 W.
        s = equal_ratio_scenario(3, 1.0, 0.1)
        r = admit(s, 0.5)
        assert r.admitted_count == 2
        np.testing.assert_allclose(r.powers, [0.1, 0.2])
        assert r.remaining_power == pytest.approx(0.2, rel=1e-9)
        assert oracle_max_admitted(s, 0.5) == 2

    def test_infeasible_first_user_admits_nobody(self):
        s = equal_ratio_scenario(2, 1.0, 0.3)
        r = admit(s, 0.25)
        assert r.admitted_count == 0
        assert r.remaining_power == 0.25
        assert r.powers.size == 0

    def test_boundary_exact_fit_is_admitted(self):
        # Requirements 0.25 then 0.5; budget exactly 0.75 admits both.
        s = equal_ratio_scenario(2, 1.0, 0.25)
        r = admit(s, 0.75)
        assert r.admitted_count == 2
        assert r.remaining_power == 0.0

    def test_budget_one_ulp_short_rejects_the_user(self):
        # Admitting both users needs 2.0508801117157857e-07 W summed as
        # allocated + required; the budget is one ulp below that sum, so the
        # second user must be rejected and phase 2 must accept the remainder.
        s = sort_users([10 ** -7.5, 10 ** -7.9], [1e-15, 1e-15], [1.4, 1.3],
                       p_max=2.0508801117157854e-07)
        r = admit(s, power_budget(s))
        assert r.admitted_count == 1
        assert r.remaining_power >= 0.0
        for solver in ("bisection", "waterfill"):
            assert run_two_phase(s, solver=solver).maxmin is not None

    def test_empty_scenario(self):
        s = Scenario([], [], [], [], [], 1.0)
        r = admit(s, 1.0)
        assert r.admitted_count == 0 and r.remaining_power == 1.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            admit(equal_ratio_scenario(1, 1.0, 0.1), 0.0)

    def test_full_powers_pads_rejected_users_with_zero(self):
        s = equal_ratio_scenario(3, 1.0, 0.1)
        r = admit(s, 0.5)
        np.testing.assert_allclose(r.full_powers(), [0.1, 0.2, 0.0])

    def test_single_pass_operation_count(self, monkeypatch):
        original = admission_mod._equality_walk

        def counting(targets, *args):
            def each_target():
                for target in targets:
                    visited.append(target)
                    yield target
            calls.append(args)
            return original(each_target(), *args)

        monkeypatch.setattr(admission_mod, "_equality_walk", counting)
        s = equal_ratio_scenario(6, 1.0, 0.1)
        for budget, admitted in ((0.5, 2), (1e3, 6)):
            calls, visited = [], []
            r = admit(s, budget)
            # One walk over the admitted prefix plus the first rejection (when
            # there is one); never a second look.
            assert r.admitted_count == admitted
            assert len(calls) == 1
            assert len(visited) == min(r.admitted_count + 1, s.n_sus)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
        noise = 10 ** rng.uniform(-15, -12, n)
        thresholds = 10 ** (rng.uniform(0, 20, n) / 10)
        s = Scenario(gains, noise, thresholds, [], [], 1.0)
        budget = 10 ** rng.uniform(-8, 0)
        r = admit(s, budget)
        # Budget bookkeeping closes exactly.
        assert r.powers.sum() + r.remaining_power == pytest.approx(budget, rel=1e-9)
        # Admitted users sit exactly on their thresholds.
        if r.admitted_count:
            achieved = compute_sinr(s.prefix(r.admitted_count), r.powers)
            np.testing.assert_allclose(achieved, thresholds[: r.admitted_count], rtol=1e-9)
        # The first rejected user must not fit in what is left.
        if r.admitted_count < n:
            k = r.admitted_count
            next_power = thresholds[k] * (r.powers.sum() + noise[k] / gains[k])
            assert next_power > r.remaining_power

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_budget_and_threshold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
        noise = np.full(n, 1e-14)
        thr = float(10 ** (rng.uniform(0, 20) / 10))
        budget = 10 ** rng.uniform(-7, -1)
        low = admit(Scenario(gains, noise, [thr] * n, [], [], 1.0), budget)
        richer = admit(Scenario(gains, noise, [thr] * n, [], [], 1.0), budget * 3.0)
        stricter = admit(Scenario(gains, noise, [thr * 2.0] * n, [], [], 1.0), budget)
        assert richer.admitted_count >= low.admitted_count
        assert stricter.admitted_count <= low.admitted_count


class TestRequiredPrefixPower:
    def test_first_user(self):
        s = equal_ratio_scenario(1, 1.0, 0.1)
        assert required_prefix_power(s, 1) == pytest.approx(0.1)

    def test_three_equal_users_unrolls_to_point_seven(self):
        s = equal_ratio_scenario(3, 1.0, 0.1)
        assert required_prefix_power(s, 3) == pytest.approx(0.7, rel=1e-12)

    def test_mixed_thresholds_cross_checked_with_sinr(self):
        s = Scenario([1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [], [], 10.0)
        total = required_prefix_power(s, 2)
        assert total == pytest.approx(5.0, rel=1e-12)
        r = admit(s, total)
        assert r.admitted_count == 2
        np.testing.assert_allclose(compute_sinr(s, r.powers), [2.0, 1.0], rtol=1e-12)

    def test_out_of_range_k_rejected(self):
        s = equal_ratio_scenario(2, 1.0, 0.1)
        for k in (0, 3, -1):
            with pytest.raises(ValueError):
                required_prefix_power(s, k)

    def test_matches_admit_accumulation_bitwise(self):
        rng = np.random.default_rng(5)
        gains = np.sort(10 ** rng.uniform(-8, -3, 6))[::-1]
        s = Scenario(gains, 10 ** rng.uniform(-15, -12, 6),
                     10 ** (rng.uniform(0, 20, 6) / 10), [], [], 1.0)
        r = admit(s, 1e12)  # everyone fits
        assert r.admitted_count == 6
        # The recursion total equals the sequential allocation exactly.
        total = 0.0
        for p in r.powers:
            total += p
        assert required_prefix_power(s, 6) == total


class TestGreedyOptimality:
    def test_matches_exhaustive_search_for_equal_thresholds_common_noise(self):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            gains = np.sort(10 ** rng.uniform(-8, -3, n))[::-1]
            noise = np.full(n, 10 ** rng.uniform(-15, -12))
            thr = float(10 ** (rng.uniform(0, 25) / 10))
            s = Scenario(gains, noise, [thr] * n, [], [], 1.0)
            lo = thr * noise[0] / gains[0]
            budget = float(10 ** rng.uniform(np.log10(lo) - 1, np.log10(lo) + 6))
            assert admit(s, budget).admitted_count == oracle_max_admitted(s, budget)

    def test_heterogeneous_noise_breaks_prefix_optimality(self):
        # With per-user noise the noise-to-gain cost need not follow the gain
        # order, and the descending-gain prefix can lose to a cherry-picked
        # subset; the greedy pass is only optimal when costs are ordered.
        s = Scenario([10.0, 1.0], [100.0, 1.0], [1.0, 1.0], [], [], 100.0)
        budget = 2.0
        assert admit(s, budget).admitted_count == 0
        assert oracle_max_admitted(s, budget) == 1
