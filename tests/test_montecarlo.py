import dataclasses
import inspect

import numpy as np
import pytest

from noma_crn import (
    ChannelModel,
    ExperimentStats,
    Scenario,
    admit,
    channel_gain,
    draw_scenario,
    linear_to_db,
    power_budget,
    run_fig2,
    run_fig3,
    run_fig4,
    run_seed,
    solve_waterfill,
)
from noma_crn import maxmin, montecarlo
from noma_crn.model import _equality_rows, _equality_walk


def small_model(n=6, m=0, **kw):
    return ChannelModel(num_sus=n, num_pus=m, **kw)


def scalar_chain(experiment, model, targets_db, n_values, runs, master_seed):
    """The sweep composed one run at a time from the public one-run functions:
    run_seed -> draw_scenario -> power_budget -> admit -> prefix ->
    solve_waterfill -> PU audit on the padded power vector."""
    out = []
    for ti, target_db in enumerate(targets_db):
        for ni, n in enumerate(n_values):
            point_model = dataclasses.replace(model, num_sus=n)
            admitted = violations = admitted_runs = 0
            min_db_sum = all_db_sum = 0.0
            for run_index in range(runs):
                seed = run_seed(master_seed, experiment, ti, ni, run_index)
                scenario = draw_scenario(point_model, seed, target_db)
                budget = power_budget(scenario)
                result = admit(scenario, budget)
                admitted += result.admitted_count
                powers = result.full_powers()
                if experiment == "fig3" and result.admitted_count:
                    solution = solve_waterfill(scenario.prefix(result.admitted_count), budget)
                    powers[: result.admitted_count] = solution.powers
                    achieved_db = linear_to_db(solution.achieved_sinr)
                    min_db_sum += float(np.min(achieved_db))
                    all_db_sum += float(np.mean(achieved_db))
                    admitted_runs += 1
                injected = powers.sum() * scenario.pu_gains
                limits = scenario.pu_interference_limits * (1.0 + montecarlo.AUDIT_RTOL)
                violations += bool(np.any(injected > limits))
            phase2 = experiment == "fig3"
            out.append(ExperimentStats(
                target_sinr_db=float(target_db), n_requesting=n, m_pus=model.num_pus,
                runs=runs, master_seed=master_seed, mean_admitted=admitted / runs,
                mean_min_achieved_sinr_db=(min_db_sum / admitted_runs
                                           if phase2 and admitted_runs else None),
                mean_all_achieved_sinr_db=(all_db_sum / admitted_runs
                                           if phase2 and admitted_runs else None),
                runs_with_admission=admitted_runs if phase2 else None,
                audit_violations=violations))
    return out


SWEEPS = {"fig2": run_fig2, "fig3": run_fig3}


def reference_draw(model, seed):
    """One run's draws as the sweeps first made them, independently of the
    package's draw routine: SU radii uniforms, SU shadowing, PU radii
    uniforms, PU shadowing, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n, m, sigma = model.num_sus, model.num_pus, model.shadowing_sigma_db
    return rng.random(n), rng.normal(0.0, sigma, n), rng.random(m), rng.normal(0.0, sigma, m)


class TestChannelGain:
    def test_hundred_meters_no_shadowing(self):
        assert channel_gain(small_model(), 100.0, 0.0) == pytest.approx(1e-5, rel=1e-12)

    def test_distance_clipped_at_minimum(self):
        m = small_model()
        assert channel_gain(m, 0.2, 0.0) == channel_gain(m, 1.0, 0.0) == pytest.approx(1e3)

    def test_shadowing_scales_linearly(self):
        m = small_model()
        assert channel_gain(m, 100.0, 10.0) == pytest.approx(1e-4, rel=1e-12)


class TestChannelModelValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ChannelModel(num_sus=1, num_pus=0, min_distance=0.0)
        with pytest.raises(ValueError):
            ChannelModel(num_sus=1, num_pus=0, min_distance=600.0)
        with pytest.raises(ValueError):
            ChannelModel(num_sus=-1, num_pus=0)
        with pytest.raises(ValueError):
            ChannelModel(num_sus=1, num_pus=0, shadowing_sigma_db=-1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ChannelModel(num_sus=1, num_pus=0, system_constant_k=0.0), "system_constant_k"),
    (lambda: ChannelModel(num_sus=1, num_pus=0, system_constant_k=-1e3), "system_constant_k"),
    (lambda: run_fig2(small_model(), [10.0], [3], runs=0, master_seed=1), "runs must be"),
    (lambda: run_fig3(small_model(), [10.0], [3], runs=0, master_seed=1), "runs must be"),
], ids=["k-zero", "k-negative", "fig2-no-runs", "fig3-no-runs"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestDrawScenario:
    def test_same_seed_identical_draw(self):
        m = small_model(n=8, m=3)
        a = draw_scenario(m, 123, 10.0)
        b = draw_scenario(m, 123, 10.0)
        for field in ("su_gains", "su_noise", "su_thresholds", "pu_gains",
                      "pu_interference_limits", "order"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.p_max == b.p_max

    def test_different_seeds_differ(self):
        m = small_model()
        a = draw_scenario(m, 1, 10.0)
        b = draw_scenario(m, 2, 10.0)
        assert not np.array_equal(a.su_gains, b.su_gains)

    def test_constants_applied(self):
        m = small_model(n=4, m=2)
        s = draw_scenario(m, 5, 10.0)
        assert s.n_sus == 4 and s.n_pus == 2
        np.testing.assert_allclose(s.su_noise, 1e-15)
        np.testing.assert_allclose(s.pu_interference_limits, 1e-12)
        assert s.p_max == pytest.approx(0.1)
        np.testing.assert_allclose(s.su_thresholds, 10.0)  # 10 dB
        assert np.all(np.diff(s.su_gains) <= 0)

    def test_per_user_thresholds_sorted_with_gains(self):
        m = small_model(n=5)
        target_db = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        s = draw_scenario(m, 9, target_db)
        np.testing.assert_allclose(
            s.to_original_order(s.su_thresholds), 10 ** (target_db / 10), rtol=1e-12)

    def test_zero_users_legal(self):
        s = draw_scenario(small_model(n=0, m=0), 3, 10.0)
        assert s.n_sus == 0

    @pytest.mark.parametrize("m", [0, 2])
    def test_equals_the_reference_draw(self, m):
        model = small_model(n=7, m=m)
        for run_index in range(20):
            seed = run_seed(5, "fig2", 1, 2, run_index)
            su_u, su_shadow, pu_u, pu_shadow = reference_draw(model, seed)
            radii = np.maximum(model.cell_radius * np.sqrt(su_u), model.min_distance)
            gains = channel_gain(model, radii, su_shadow)
            pu_radii = np.maximum(model.cell_radius * np.sqrt(pu_u), model.min_distance)
            s = draw_scenario(model, seed, 10.0)
            assert s.su_gains.tolist() == gains[np.argsort(-gains, kind="stable")].tolist()
            assert s.pu_gains.tolist() == channel_gain(model, pu_radii, pu_shadow).tolist()


class TestExperiments:
    def test_single_run_equals_hand_composition(self):
        model = small_model(n=5, m=1)
        stats = run_fig2(model, [12.0], [5], runs=1, master_seed=7)[0]
        scenario = draw_scenario(
            dataclasses.replace(model, num_sus=5), run_seed(7, "fig2", 0, 0, 0), 12.0)
        expected = admit(scenario, power_budget(scenario)).admitted_count
        assert stats.mean_admitted == expected
        assert stats.runs == 1 and stats.n_requesting == 5 and stats.m_pus == 1

    def test_fig2_grid_shape_and_determinism(self):
        model = small_model(n=6, m=1)
        a = run_fig2(model, [5.0, 15.0], [3, 6], runs=40, master_seed=11)
        b = run_fig2(model, [5.0, 15.0], [3, 6], runs=40, master_seed=11)
        assert a == b
        assert [(s.target_sinr_db, s.n_requesting) for s in a] == [
            (5.0, 3), (5.0, 6), (15.0, 3), (15.0, 6)]

    def test_parallel_matches_serial_exactly(self):
        model = small_model(n=5, m=1)
        serial = run_fig3(model, [8.0, 20.0], [3, 5], runs=25, master_seed=3, n_jobs=1)
        parallel = run_fig3(model, [8.0, 20.0], [3, 5], runs=25, master_seed=3, n_jobs=2)
        assert serial == parallel

    def test_pool_is_no_wider_than_the_grid(self, monkeypatch):
        # A stand-in pool records its width and maps serially, so no worker
        # process starts whatever n_jobs asks for.
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        model = small_model(n=5, m=1)
        serial = run_fig2(model, [8.0, 20.0], [3, 5, 4], runs=5, master_seed=3)
        for n_jobs, width in ((100_000, 6), (6, 6), (4, 4)):
            assert run_fig2(model, [8.0, 20.0], [3, 5, 4], runs=5, master_seed=3,
                            n_jobs=n_jobs) == serial
            assert widths.pop() == width
        # A one-point grid takes the serial path.
        run_fig3(model, [8.0], [3], runs=5, master_seed=3, n_jobs=100_000)
        assert widths == []

    @pytest.mark.parametrize("target_db", [4000.0, -4000.0])
    def test_threshold_beyond_the_float_range_raises_the_scalar_error(self, target_db):
        # Its linear value overflows to inf or underflows to 0; both paths
        # refuse it with Scenario's error and no numpy warning.
        model = small_model(n=2, m=1)
        with pytest.raises(ValueError, match="su_thresholds entries") as scalar:
            scalar_chain("fig3", model, [target_db], [2], 3, 0)
        for sweep in SWEEPS.values():
            with pytest.raises(ValueError) as batched:
                sweep(model, [target_db], [2], 3, 0)
            assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("dbm", [4000.0, -4000.0])
    @pytest.mark.parametrize("field", ["su_noise_dbm", "pu_interference_limit_dbm", "p_max_dbm"])
    def test_power_level_beyond_the_float_range_raises_the_scalar_error(self, field, dbm):
        # Its watts overflow to inf or underflow to 0; both paths refuse it
        # with Scenario's error, which names the field, and no numpy warning.
        model = small_model(n=2, m=1, **{field: dbm})
        with pytest.raises(ValueError, match=field.removesuffix("_dbm")) as scalar:
            scalar_chain("fig3", model, [5.0], [2], 3, 0)
        for sweep in SWEEPS.values():
            with pytest.raises(ValueError) as batched:
                sweep(model, [5.0], [2], 3, 0)
            assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_worker_count_below_one_is_refused(self, n_jobs, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        for sweep in SWEEPS.values():
            with pytest.raises(ValueError, match="n_jobs must be at least 1"):
                sweep(small_model(), [10.0, 20.0], [3, 4], 2, 1, n_jobs=n_jobs)

    def test_worker_count_is_keyword_only(self):
        # A sixth positional argument, such as a stale tolerance, is refused
        # rather than taken for a worker count.
        for sweep in SWEEPS.values():
            with pytest.raises(TypeError):
                sweep(small_model(), [10.0], [3], 2, 1, 1e-6)

    def test_fig3_means_only_over_admitting_runs(self):
        model = small_model(n=4, m=2)
        stats = run_fig3(model, [20.0], [4], runs=60, master_seed=5)[0]
        assert stats.runs_with_admission is not None
        assert 0 <= stats.runs_with_admission <= 60
        if stats.runs_with_admission:
            assert stats.mean_min_achieved_sinr_db >= 20.0 - 1e-9
            assert stats.mean_all_achieved_sinr_db >= stats.mean_min_achieved_sinr_db - 1e-12
        else:
            assert stats.mean_min_achieved_sinr_db is None

    def test_admitted_count_trend_against_target(self):
        model = small_model(n=8, m=0)
        stats = run_fig2(model, [5.0, 15.0, 25.0], [8], runs=300, master_seed=17)
        means = [s.mean_admitted for s in stats]
        assert means[0] >= means[1] >= means[2]

    def test_interference_audit_clean_with_pus(self):
        model = small_model(n=6, m=3)
        stats = run_fig3(model, [10.0, 20.0], [6], runs=150, master_seed=23)
        assert sum(s.audit_violations for s in stats) == 0


class TestRunBatchedKernel:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_equals_the_scalar_chain_bitwise(self, experiment, m, seed):
        # 20 grid points per case, 240 over the table: 0 to 30 dB, 1 to 30
        # users, with and without PUs, so rows stop at every column.
        targets, n_values = [0.0, 8.0, 20.0, 30.0], [1, 2, 5, 12, 30]
        model = small_model(m=m)
        got = SWEEPS[experiment](model, targets, n_values, runs=40, master_seed=seed)
        assert got == scalar_chain(experiment, model, targets, n_values, 40, seed)

    def test_one_chunk_plus_one_run(self):
        runs = montecarlo._CHUNK_RUNS + 1
        model = small_model(m=1)
        for experiment, sweep in SWEEPS.items():
            got = sweep(model, [12.0], [4], runs=runs, master_seed=9)
            assert got == scalar_chain(experiment, model, [12.0], [4], runs, 9)

    def test_zero_users(self):
        for experiment, sweep in SWEEPS.items():
            got = sweep(small_model(m=2), [10.0], [0], runs=3, master_seed=4)
            assert got == scalar_chain(experiment, small_model(m=2), [10.0], [0], 3, 4)

    @pytest.mark.parametrize("field, message", [
        ({"path_loss_exponent": 400.0}, "su_gains entries"),
        ({"su_noise_dbm": -1e6}, "su_noise entries"),
        ({"pu_interference_limit_dbm": -1e6}, "pu_interference_limits entries"),
        ({"p_max_dbm": float("inf")}, "p_max must be"),
        # 2e-323 W over PU gains above 60: the budget underflows to 0.
        ({"pu_interference_limit_dbm": -3197.0, "cell_radius": 2.0}, "budget must be"),
        # 1e-323 W of noise over gains above ~3: a user's N/G underflows to 0.
        ({"su_noise_dbm": -3200.0, "system_constant_k": 1e10}, "must not underflow to 0"),
    ])
    def test_refused_draw_raises_the_scalar_error(self, field, message):
        model = small_model(n=4, m=1, **field)
        with pytest.raises(ValueError, match=message) as scalar:
            scalar_chain("fig3", model, [10.0], [4], 3, 1)
        with pytest.raises(ValueError, match=message) as batched:
            run_fig3(model, [10.0], [4], runs=3, master_seed=1)
        assert str(batched.value) == str(scalar.value)

    def test_first_failing_run_decides_the_error(self):
        # 100 dB shadowing on K = 1e290: some runs draw gains that overflow and
        # are refused; in others a lone admitted user's SINR B*G/N overflows
        # and phase 2 fails in linear_to_db. Whichever run fails first decides
        # the error.
        model = small_model(n=3, m=0, shadowing_sigma_db=100.0, system_constant_k=1e290)

        def refused(seed, run):
            try:
                draw_scenario(model, run_seed(seed, "fig3", 0, 0, run), 2900.0)
            except ValueError:
                return True
            return False

        overtaken = 0
        for seed in range(20):
            try:
                scalar_chain("fig3", model, [2900.0], [3], 4, seed)
                expected = None
            except ValueError as exc:
                expected = str(exc)
            try:
                run_fig3(model, [2900.0], [3], runs=4, master_seed=seed)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected
            # A phase-2 error in an early run hides a refused later run.
            if str(expected).startswith("linear_to_db"):
                overtaken += any(refused(seed, run) for run in range(1, 4))
        assert overtaken

    def test_audit_counts_like_the_scalar_chain(self, monkeypatch):
        # At half the PU limits the audit fires in some runs and not others.
        monkeypatch.setattr(montecarlo, "AUDIT_RTOL", -0.5)
        model = small_model(m=2)
        for experiment, sweep in SWEEPS.items():
            got = sweep(model, [0.0, 20.0], [3, 12], runs=40, master_seed=8)
            assert got == scalar_chain(experiment, model, [0.0, 20.0], [3, 12], 40, 8)
            assert 0 < sum(s.audit_violations for s in got) < 4 * 40

    def test_builds_no_scenario_per_run(self, monkeypatch):
        built = []
        original = Scenario.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        run_fig3(small_model(m=2), [5.0, 20.0], [5, 10], runs=30, master_seed=3)
        run_fig2(small_model(m=2), [5.0, 20.0], [5, 10], runs=30, master_seed=3)
        assert built == []

    @pytest.mark.parametrize("m", [0, 2])
    def test_chunk_draws_equal_the_reference_draw(self, monkeypatch, m):
        drawn = []
        draw_rows = montecarlo._draw_rows

        def recording(*args):
            drawn.append(draw_rows(*args))
            return drawn[-1]

        monkeypatch.setattr(montecarlo, "_draw_rows", recording)
        model = small_model(n=6, m=m)
        run_fig3(model, [10.0], [6], runs=40, master_seed=2**40)
        (chunk,) = drawn
        for run_index in range(40):
            expected = reference_draw(model, run_seed(2**40, "fig3", 0, 0, run_index))
            # Radii bit for bit; shadowing equal as floats, the sign of a zero
            # aside, which db_to_linear erases.
            for got, want in zip(chunk, expected):
                np.testing.assert_array_equal(got[run_index], want)

    def test_builds_one_seed_sequence_per_chunk_not_per_run(self, monkeypatch):
        built = []

        class Counting(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counting)
        runs = montecarlo._CHUNK_RUNS + 1  # two chunks per grid point
        run_fig3(small_model(m=2), [5.0, 20.0], [5], runs=runs, master_seed=3)
        run_fig2(small_model(m=2), [5.0, 20.0], [5], runs=runs, master_seed=3)
        assert 0 < len(built) <= 2 * 2 * 2

    def test_one_phase2_search_per_chunk(self, monkeypatch):
        # The chunk's rows admit several counts >= 2; one padded block
        # serves them all, so the Newton and last-fit searches run once.
        # The counts are bound by name, so no other argument can stand in.
        searched = []
        newton_rows, last_fit_rows = maxmin._newton_rows, maxmin._last_fit_rows
        signature = inspect.signature(newton_rows)

        def newton(*args, **kwargs):
            counts = signature.bind(*args, **kwargs).arguments["counts"]
            searched.append(("newton", sorted(set(counts.tolist()))))
            return newton_rows(*args, **kwargs)

        def last_fit(*args):
            searched.append(("last_fit", None))
            return last_fit_rows(*args)

        monkeypatch.setattr(maxmin, "_newton_rows", newton)
        monkeypatch.setattr(maxmin, "_last_fit_rows", last_fit)
        stats = run_fig3(small_model(m=0), [15.0], [10], runs=200, master_seed=3)
        assert stats == scalar_chain("fig3", small_model(m=0), [15.0], [10], 200, 3)
        (_, counts), last = searched
        assert last == ("last_fit", None)
        assert len(counts) >= 3 and min(counts) >= 2

    def test_solves_phase2_without_the_scalar_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweeps solve phase 2 as blocks of rows")

        for name in ("solve_waterfill", "_newton_root", "_last_fit", "_equality_walk"):
            monkeypatch.setattr(maxmin, name, refuse)
        stats = run_fig3(small_model(m=1), [5.0, 20.0], [1, 5, 10], runs=30, master_seed=3)
        assert all(s.runs_with_admission for s in stats)


class TestRunSeedWords:
    RUNS = [*range(2101), *range(2**32 - 3, 2**32 + 3), 2**63, 2**64 - 1]

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3])
    @pytest.mark.parametrize("indices", [(0, 0), (4, 2**32), (2**33 + 1, 7)])
    def test_equals_each_runs_seed_sequence(self, master, indices):
        # Prefixes of four to seven 32-bit words, and run indices of one word
        # and, from 2**32 on, two, whose high word must be mixed in as well.
        got = montecarlo._run_seed_words(run_seed(master, "fig3", *indices), self.RUNS)
        expected = [run_seed(master, "fig3", *indices, run).generate_state(4, np.uint64)
                    for run in self.RUNS]
        assert got.dtype == np.uint64
        assert got.tolist() == np.array(expected).tolist()

    def test_cached_hash_constants_refuse_writes(self):
        consts = montecarlo._hash_consts(montecarlo._INIT_A, montecarlo._MULT_A, 16, 4)
        with pytest.raises(ValueError, match="read-only"):
            consts[0] = 1

    def test_negative_master_seed_is_run_seeds_error(self):
        with pytest.raises(ValueError) as expected:
            run_seed(-1, "fig2", 0, 0, 0)
        for sweep in SWEEPS.values():
            with pytest.raises(ValueError) as got:
                sweep(small_model(), [10.0], [3], runs=2, master_seed=-1)
            assert str(got.value) == str(expected.value)


class TestEqualityRows:
    @pytest.mark.parametrize("budgeted", [True, False])
    @pytest.mark.parametrize("per_row", [True, False], ids=["per-row", "scalar"])
    def test_each_row_is_the_scalar_walk(self, budgeted, per_row):
        # One SINR per row, as the sweeps walk: per row (the phase-2 probes,
        # some on the threshold levels) or one scalar for every row (admission).
        rng = np.random.default_rng(5)
        levels = 10 ** (np.array([0.0, 3.0, 6.0, 10.0, 20.0]) / 10)
        for n in (0, 1, 2, 7, 30):
            rows = 64
            if per_row:
                lam = 10 ** rng.uniform(-1, 2.5, rows)
                lam[::4] = rng.choice(levels, rows // 4)
            else:
                lam = float(rng.choice(levels))
            targets = [[float(sinr)] * n for sinr in np.broadcast_to(lam, rows)]
            costs = 10 ** rng.uniform(-13, -9, (rows, n))
            # The running totals after each user, as the walk adds them up.
            totals = np.zeros((rows, n + 1))
            for r in range(rows):
                for k, power in enumerate(_equality_walk(targets[r], costs[r].tolist())[0]):
                    totals[r, k + 1] = totals[r, k] + power
            # From nobody admitted through every stopping column to everyone;
            # odd rows get a budget exactly equal to a running total, which
            # admits that user (the walk stops only where the total exceeds it).
            budgets = totals[:, -1] * 10 ** rng.uniform(-3, 0.5, rows) if budgeted else np.inf
            if budgeted and n:
                budgets[1::2] = totals[1::2, 1:][np.arange(rows // 2),
                                                rng.integers(0, n, rows // 2)]
            powers, counts, total = _equality_rows(lam, costs, budgets)
            for r in range(rows):
                budget = float(budgets[r]) if budgeted else np.inf
                walked, walked_total = _equality_walk(targets[r], costs[r].tolist(), budget)
                assert counts[r] == len(walked)
                assert powers[r, :counts[r]].tolist() == walked
                assert not powers[r, counts[r]:].any()
                assert total[r] == walked_total
            if budgeted and n > 1:
                assert len(set(counts.tolist())) > 2


class TestSnapshot:
    def test_rows_ordered_and_targets_respected(self):
        model = small_model(n=15, m=0)
        rows = run_fig4(model, 15, (5.0, 25.0), seed=41)
        assert len(rows) == 15
        gains = [r.gain for r in rows]
        assert gains == sorted(gains, reverse=True)
        assert sorted(r.user_index for r in rows) == list(range(15))
        admitted_flags = [r.admitted for r in rows]
        assert admitted_flags == sorted(admitted_flags, reverse=True)  # prefix property
        for r in rows:
            assert (5.0 <= r.target_db <= 25.0)
            if r.admitted:
                assert r.achieved_db >= r.target_db - 1e-6
            else:
                assert r.achieved_db is None

    def test_mix_of_lifted_and_pinned_users(self):
        # With spread-out targets, some admitted users stay at their target
        # while the low-target ones get lifted to a common level.
        model = small_model(n=15, m=1)
        for seed in range(12):
            rows = run_fig4(model, 15, (5.0, 25.0), seed=seed)
            lifted = [r for r in rows if r.admitted and r.achieved_db > r.target_db + 1e-6]
            pinned = [r for r in rows if r.admitted and abs(r.achieved_db - r.target_db) <= 1e-6]
            if lifted and pinned:
                break
        else:
            pytest.fail("no seed produced both lifted and pinned admitted users")

    def test_degenerate_range_reduces_to_common_target(self):
        model = small_model(n=5, m=0)
        rows = run_fig4(model, 5, (10.0, 10.0), seed=2)
        assert all(r.target_db == pytest.approx(10.0) for r in rows)

    def test_deterministic(self):
        model = small_model(n=10, m=2)
        assert run_fig4(model, 10, (5.0, 25.0), seed=8) == run_fig4(model, 10, (5.0, 25.0), seed=8)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            run_fig4(small_model(), 5, (25.0, 5.0), seed=1)


class TestEq5AuditDirectly:
    def test_total_injected_interference_below_every_limit(self):
        model = small_model(n=8, m=4)
        for seed in range(30):
            scenario = draw_scenario(model, seed, 12.0)
            budget = power_budget(scenario)
            result = admit(scenario, budget)
            powers = result.full_powers()
            injected = powers.sum() * scenario.pu_gains
            assert np.all(injected <= scenario.pu_interference_limits * (1 + 1e-9))

    def test_phase2_powers_also_respect_limits(self):
        from noma_crn import solve_waterfill

        model = small_model(n=8, m=4)
        for seed in range(30):
            scenario = draw_scenario(model, seed, 12.0)
            budget = power_budget(scenario)
            result = admit(scenario, budget)
            if result.admitted_count == 0:
                continue
            sol = solve_waterfill(scenario.prefix(result.admitted_count), budget)
            injected = sol.powers.sum() * scenario.pu_gains
            assert np.all(injected <= scenario.pu_interference_limits * (1 + 1e-9))
