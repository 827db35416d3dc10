import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from noma_crn import (DEFAULT_EPSILON, Scenario, ScenarioParseError, cli, read_scenario,
                      run_two_phase, write_scenario)
from noma_crn.cli import (
    EXIT_CAPACITY,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
    parse_config,
)
from noma_crn.oracle import MAX_GRID_ARRAY_POINTS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_SCENARIO = """
# two users, one primary
noise_dbm -120
pmax_dbm 20
su -50 5
su -60 5
pu -70 -90
"""


SIM_SMALL = ["simulate", "--n-values", "3", "--targets-db", "5"]
SIM_FIG2 = SIM_SMALL + ["--experiment", "fig2", "--pus", "1"]
SIM_FIG4 = ["simulate", "--experiment", "fig4", "--pus", "1", "--sus", "4"]


@pytest.fixture
def scenario_file(tmp_path):
    return write_text(tmp_path / "s.txt", SMALL_SCENARIO)


class TestScenarioFiles:
    def test_read_known_file(self, scenario_file):
        s = read_scenario(scenario_file)
        assert s.n_sus == 2 and s.n_pus == 1
        np.testing.assert_allclose(s.su_gains, [1e-5, 1e-6], rtol=1e-12)
        np.testing.assert_allclose(s.su_thresholds, 10 ** 0.5, rtol=1e-12)
        np.testing.assert_allclose(s.su_noise, 1e-15, rtol=1e-12)
        np.testing.assert_allclose(s.pu_interference_limits, [1e-12], rtol=1e-12)
        assert s.p_max == pytest.approx(0.1, rel=1e-12)

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(4)
        gains = np.sort(10 ** rng.uniform(-8, -3, 5))[::-1]
        s = Scenario(gains, np.full(5, 1e-15), 10 ** (rng.uniform(0, 25, 5) / 10),
                     10 ** rng.uniform(-9, -5, 2), np.full(2, 1e-12), 0.1)
        path = tmp_path / "rt.txt"
        write_scenario(str(path), s)
        back = read_scenario(str(path))
        for field in ("su_gains", "su_noise", "su_thresholds", "pu_gains",
                      "pu_interference_limits"):
            np.testing.assert_allclose(getattr(back, field), getattr(s, field),
                                       rtol=1e-12, atol=0.0)
        assert back.p_max == pytest.approx(s.p_max, rel=1e-12)
        # Re-serialization of the parsed scenario is stable.
        path2 = tmp_path / "rt2.txt"
        write_scenario(str(path2), back)
        again = read_scenario(str(path2))
        np.testing.assert_allclose(again.su_gains, back.su_gains, rtol=1e-13)

    @pytest.mark.parametrize("text,fragment", [
        ("noise_dbm -120\npmax_dbm 20\nsu -50\n", "expects 2"),
        ("noise_dbm -120\npmax_dbm 20\nsu -50 abc\n", "malformed number"),
        ("noise_dbm -120\npmax_dbm 20\nfoo 1\n", "unknown key"),
        ("noise_dbm -120\nnoise_dbm -121\npmax_dbm 20\n", "duplicate"),
        ("noise_dbm -120\nsu -50 5\n", "pmax_dbm"),
    ])
    def test_parse_errors_carry_context(self, tmp_path, text, fragment):
        path = write_text(tmp_path / "bad.txt", text)
        with pytest.raises(ScenarioParseError, match=fragment):
            read_scenario(path)

    def test_line_number_in_message(self, tmp_path):
        path = write_text(tmp_path / "bad.txt", "noise_dbm -120\npmax_dbm 20\nsu -50 oops\n")
        with pytest.raises(ScenarioParseError, match=":3:"):
            read_scenario(path)

    def test_per_user_noise_cannot_be_serialized(self, tmp_path):
        s = Scenario([2.0, 1.0], [1.0, 2.0], [1.0, 1.0], [], [], 1.0)
        with pytest.raises(ValueError, match="noise"):
            write_scenario(str(tmp_path / "x.txt"), s)


class TestParseConfig:
    def test_simulate_flags(self):
        cfg = parse_config(["simulate", "--experiment", "fig2", "--pus", "3",
                            "--runs", "10000", "--seed", "42"])
        assert cfg.command == "simulate" and cfg.experiment == "fig2"
        assert cfg.pus == 3 and cfg.runs == 10000 and cfg.seed == 42
        assert cfg.format == "csv"

    def test_maxmin_flags(self, scenario_file):
        cfg = parse_config(["maxmin", "--scenario", scenario_file,
                            "--solver", "both", "--epsilon", "1e-6"])
        assert cfg.solver == "both" and cfg.epsilon == 1e-6
        assert cfg.format == "table"

    def test_config_file_supplies_values_and_flags_override(self, tmp_path, scenario_file):
        cfg_path = write_text(tmp_path / "c.json", json.dumps({"runs": 55, "pus": 2, "seed": 9}))
        cfg = parse_config(["simulate", "--experiment", "fig2", "--config", cfg_path,
                            "--runs", "77"])
        assert cfg.runs == 77      # flag wins
        assert cfg.pus == 2        # from file
        assert cfg.seed == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = write_text(tmp_path / "c.json", json.dumps({"bogus": 1}))
        with pytest.raises(ScenarioParseError, match="bogus"):
            parse_config(["simulate", "--experiment", "fig2", "--pus", "1",
                          "--config", cfg_path])

    def test_malformed_config_value_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_text(tmp_path / "c.json", json.dumps({"runs": "plenty"}))
        code = main(["simulate", "--experiment", "fig2", "--pus", "1",
                     "--config", cfg_path])
        assert code == EXIT_USAGE
        assert "runs" in capsys.readouterr().err

    # One row per bad option value: (argv, config-file values, name expected on stderr).
    # Config values and flags go through the same checks and all exit 2 (usage).
    @pytest.mark.parametrize("argv,config,name", [
        (SIM_FIG2, {"runs": "plenty"}, "runs"),
        (["maxmin"], {"solver": "garbage"}, "solver"),
        (SIM_SMALL + ["--pus", "0", "--runs", "5"], {"experiment": "fig9"}, "experiment"),
        (["admit"], {"format": "xml"}, "format"),
        (["verify"], {"grid_points": "abc"}, "grid_points"),
        (SIM_FIG2 + ["--runs", "5"], {"seed": 1.7}, "seed"),
        (SIM_FIG2, {"runs": True}, "runs"),
        (SIM_FIG4 + ["--sus", "-1"], None, "--sus"),
        (SIM_FIG2 + ["--runs", "5", "--n-values", ""], None, "--n-values"),
        (SIM_FIG4 + ["--threshold-range-db", "10,5"], None, "--threshold-range-db"),
        (["verify", "--grid-points", "1"], None, "--grid-points"),
        (SIM_FIG2 + ["--runs", "5", "--targets-db", ""], None, "--targets-db"),
        (["verify", "--grid-points", "-5"], None, "--grid-points"),
        (["simulate", "--experiment", "fig2", "--pus", "1", "--sus", "99",
          "--threshold-range-db", "1,2", "--epsilon", "0.5"], None,
         "--sus: not read by --experiment fig2"),
        (["simulate", "--experiment", "fig4", "--pus", "1", "--runs", "7", "--n-values", "9",
          "--jobs", "2", "--targets-db", "30"], None, "--n-values: not read by --experiment fig4"),
        (SIM_FIG4, {"runs": 5}, "runs: not read by --experiment fig4"),
        (["simulate", "--experiment", "fig3", "--pus", "1", "--epsilon", "1e-6"], None,
         "--epsilon: not read by --experiment fig3"),
        (SIM_FIG4 + ["--epsilon", "1e-6"], None, "--epsilon: not read by --experiment fig4"),
        (["simulate", "--experiment", "fig3", "--pus", "1"], {"epsilon": 1e-6},
         "epsilon: not read by --experiment fig3"),
        # dB values whose linear value overflows to inf or underflows to 0.
        (SIM_FIG2 + ["--runs", "5", "--targets-db", "4000"], None, "--targets-db"),
        (SIM_FIG2 + ["--runs", "5", "--targets-db=5,-4000"], None, "--targets-db"),
        (["simulate", "--experiment", "fig2", "--pus", "1", "--n-values", "3", "--runs", "5"],
         {"targets_db": [4000]}, "targets_db"),
        (SIM_FIG4 + ["--threshold-range-db", "1e308,1e308"], None, "--threshold-range-db"),
        (SIM_FIG4 + ["--threshold-range-db=-4000,5"], None, "--threshold-range-db"),
        (["maxmin", "--epsilon", "inf"], None, "--epsilon"),
    ], ids=["config-runs-text", "config-solver", "config-experiment", "config-format",
            "config-grid-points", "config-seed-fraction", "config-runs-bool", "flag-sus-negative",
            "flag-n-values-empty", "flag-threshold-range-reversed", "flag-grid-points-one",
            "flag-targets-db-empty", "flag-grid-points-negative", "flags-unread-by-fig2",
            "flags-unread-by-fig4", "config-unread-by-fig4", "flag-epsilon-unread-by-fig3",
            "flag-epsilon-unread-by-fig4", "config-epsilon-unread-by-fig3",
            "flag-targets-db-overflow", "flag-targets-db-underflow", "config-targets-db-overflow",
            "flag-threshold-range-overflow", "flag-threshold-range-underflow",
            "flag-epsilon-inf"])
    def test_malformed_option_value_is_usage_error(self, tmp_path, capsys, scenario_file,
                                                   argv, config, name):
        if argv[0] != "simulate":
            argv = [argv[0], "--scenario", scenario_file, *argv[1:]]
        if config is not None:
            argv = [*argv, "--config", write_text(tmp_path / "c.json", json.dumps(config))]
        assert main(argv) == EXIT_USAGE
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("text, fragment", [
        (None, "cannot read config file"),
        ('{"runs": 5', "invalid JSON"),
        ("[5]", "must be a JSON object"),
    ], ids=["unreadable", "invalid-json", "not-an-object"])
    def test_bad_config_file_is_parse_error(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "c.json"
        if text is not None:
            write_text(path, text)
        assert main(SIM_FIG2 + ["--config", str(path)]) == EXIT_PARSE
        assert fragment in capsys.readouterr().err

    def test_env_seed_used_as_default(self, monkeypatch):
        monkeypatch.setenv("NOMA_CRN_SEED", "314")
        cfg = parse_config(["simulate", "--experiment", "fig2", "--pus", "0"])
        assert cfg.seed == 314
        cfg = parse_config(["simulate", "--experiment", "fig2", "--pus", "0", "--seed", "7"])
        assert cfg.seed == 7


class TestMainExitCodes:
    def test_missing_pus_is_usage_error(self, capsys):
        assert main(["simulate", "--experiment", "fig2"]) == EXIT_USAGE
        assert "pus" in capsys.readouterr().err

    def test_bad_scenario_file_is_parse_error(self, tmp_path, capsys):
        path = write_text(tmp_path / "bad.txt", "wat 1\n")
        assert main(["admit", "--scenario", path]) == EXIT_PARSE

    @pytest.mark.parametrize("line", ["su 10 4000", "su 10 -4000", "su 4000 10"])
    def test_file_value_beyond_the_float_range_is_parse_error(self, tmp_path, capsys, line):
        # The linear value overflows to inf or underflows to 0: refused by
        # Scenario's checks, with no numpy warning (warnings are errors here).
        path = write_text(tmp_path / "big.txt", f"noise_dbm -120\npmax_dbm 20\n{line}\n")
        assert main(["maxmin", "--scenario", path]) == EXIT_PARSE
        assert "strictly positive and finite" in capsys.readouterr().err

    def test_capacity_error_from_verify(self, tmp_path):
        lines = ["noise_dbm -120", "pmax_dbm 20"] + [f"su -{50 + i} 5" for i in range(13)]
        path = write_text(tmp_path / "big.txt", "\n".join(lines) + "\n")
        assert main(["verify", "--scenario", path]) == EXIT_CAPACITY

    def test_grid_points_above_array_cap_is_capacity_error(self, scenario_file, capsys):
        # Two admitted users build points x points meshes; refused before allocating.
        side = math.isqrt(MAX_GRID_ARRAY_POINTS) + 1
        assert main(["verify", "--scenario", scenario_file,
                     "--grid-points", str(side)]) == EXIT_CAPACITY
        assert "cap" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, scenario_file):
        assert main(["admit", "--scenario", scenario_file,
                     "--output", "/nonexistent-dir/x.csv"]) == EXIT_IO

    def test_empty_scenario_reports_cleanly(self, tmp_path, capsys):
        path = write_text(tmp_path / "empty.txt", "noise_dbm -120\npmax_dbm 20\n")
        assert main(["maxmin", "--scenario", path]) == EXIT_OK
        assert "0 admitted" in capsys.readouterr().out

    def test_empty_scenario_maxmin_csv_is_header_only(self, tmp_path, capsys):
        path = write_text(tmp_path / "empty.txt", "noise_dbm -120\npmax_dbm 20\nsu -200 5\n")
        assert main(["maxmin", "--scenario", path, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "solver,theta_linear,theta_db,iterations,user_index,power_w,achieved_db\n")

    def test_verify_has_no_format_flag(self, scenario_file, capsys):
        assert main(["verify", "--scenario", scenario_file, "--format", "csv"]) == EXIT_USAGE
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["admit", "--scenaro", "x.txt"], ["solve"], []],
                             ids=["misspelt-flag", "unknown-command", "no-command"])
    def test_flags_argparse_rejects_return_usage(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage: noma-crn" in err

    def test_python_m_noma_crn_help_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "noma_crn", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: noma-crn")

    def test_verify_has_no_format_config_key(self, tmp_path, scenario_file, capsys):
        cfg_path = write_text(tmp_path / "c.json", json.dumps({"format": "csv"}))
        assert main(["verify", "--scenario", scenario_file, "--config", cfg_path]) == EXIT_PARSE
        assert "unknown config keys: format" in capsys.readouterr().err

    def test_verify_is_inconclusive_on_a_grid_past_the_float_range(self, tmp_path, capsys):
        # Both users' G/N overflow, so the grid's resolution is inf: any gap
        # would agree with it. That is no check, so verify exits 5, unwarned.
        two = write_text(tmp_path / "two.txt",
                         "noise_dbm -120\npmax_dbm 20\nsu 3000 10\nsu 2990 10\n")
        lone = write_text(tmp_path / "lone.txt", "noise_dbm -120\npmax_dbm 20\nsu 3000 10\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--scenario", two]) == EXIT_CAPACITY
            out = capsys.readouterr().out.splitlines()
            assert out == [
                "phase 1: greedy admitted 2, exhaustive best 2 -> agree",
                "phase 2 grid: 1001820 points, resolution inf (linear SINR)",
                "phase 2 grid: resolution or value not finite, any gap would agree "
                "-> inconclusive",
                "verification: INCONCLUSIVE"]
            # A lone user's SINR itself overflows: refused before the oracle.
            assert main(["verify", "--scenario", lone]) == EXIT_CAPACITY
            assert "beyond the float range" in capsys.readouterr().err

    def test_verify_fails_on_a_phase_1_mismatch(self, tmp_path, capsys):
        # The strongest user's 200 dB target does not fit, so greedy admits
        # nobody, while the second user alone fits.
        path = write_text(tmp_path / "mixed.txt",
                          "noise_dbm -120\npmax_dbm 20\nsu -50 200\nsu -60 5\n")
        assert main(["verify", "--scenario", path]) == EXIT_MISMATCH
        assert capsys.readouterr().out.splitlines() == [
            "phase 1: greedy admitted 0, exhaustive best 1 -> MISMATCH",
            "phase 2: nobody admitted; nothing to verify",
            "verification: FAIL"]

    def test_verify_skips_phase_2_above_three_users(self, tmp_path, capsys):
        lines = ["noise_dbm -120", "pmax_dbm 20"] + [f"su -{50 + i} 5" for i in range(4)]
        path = write_text(tmp_path / "four.txt", "\n".join(lines) + "\n")
        assert main(["verify", "--scenario", path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "phase 1: greedy admitted 4, exhaustive best 4 -> agree",
            "phase 2 grid: skipped (4 admitted users exceed the 3-user grid oracle)",
            "verification: PASS"]

    def test_verify_passes_on_small_scenario(self, scenario_file, capsys):
        assert main(["verify", "--scenario", scenario_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "agree" in out and "PASS" in out


class TestEveryAcceptedOptionIsRead:
    # An option a subcommand or experiment accepts but never reads would be a
    # silent no-op; each run below must read every accepted option at least once.
    @pytest.mark.parametrize("argv", [
        ["admit"],
        ["maxmin"],
        ["verify"],
        SIM_FIG2 + ["--runs", "5"],
        SIM_SMALL + ["--experiment", "fig3", "--pus", "0", "--runs", "5"],
        SIM_FIG4,
    ], ids=["admit", "maxmin", "verify", "fig2", "fig3", "fig4"])
    def test_run_reads_every_accepted_option(self, monkeypatch, scenario_file, capsys, argv):
        if argv[0] != "simulate":
            argv = [argv[0], "--scenario", scenario_file, *argv[1:]]
        reads = set()

        class Recorder:
            def __init__(self, cfg):
                self._cfg = cfg

            def __getattr__(self, name):
                reads.add(name)
                return getattr(self._cfg, name)

        real_parse = cli.parse_config
        cfg = real_parse(argv)
        monkeypatch.setattr(cli, "parse_config", lambda args=None: Recorder(real_parse(args)))
        assert main(argv) == EXIT_OK
        scope = cfg.experiment or cfg.command
        accepted = {opt.name for opt in cli._OPTIONS if scope in opt.commands}
        assert accepted - reads == set()


class TestMaxminCommand:
    def test_both_solvers_report_discrepancy(self, scenario_file, capsys):
        assert main(["maxmin", "--scenario", scenario_file, "--solver", "both"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bisection" in out and "waterfill" in out
        gap_line = [ln for ln in out.splitlines() if "discrepancy" in ln]
        assert len(gap_line) == 1
        gap = float(gap_line[0].split()[2])
        assert gap <= 2e-6

    def test_overflowing_lone_user_bound(self, tmp_path, capsys):
        # The lone-user bound B*G/N is ~1e314 and overflows to inf: both solvers
        # still solve it, warn about nothing, and agree within criterion 1's tolerance.
        path = write_text(tmp_path / "huge.txt",
                          "noise_dbm -120\npmax_dbm 20\nsu 3000 10\nsu 2990 10\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solver in ("bisection", "waterfill"):
                assert main(["maxmin", "--scenario", path, "--solver", solver]) == EXIT_OK
            assert main(["maxmin", "--scenario", path, "--solver", "both"]) == EXIT_OK
            (gap_line,) = [ln for ln in capsys.readouterr().out.splitlines()
                           if "discrepancy" in ln]
            assert float(gap_line.split()[2]) <= 2 * DEFAULT_EPSILON
            scenario = read_scenario(path)
            b, w = (run_two_phase(scenario, solver=solver).maxmin
                    for solver in ("bisection", "waterfill"))
        assert abs(b.theta_star - w.theta_star) <= 2 * DEFAULT_EPSILON
        scale = 10 * DEFAULT_EPSILON * float(np.max(scenario.noise_over_gain))
        np.testing.assert_allclose(b.powers, w.powers, atol=scale, rtol=1e-6)

    def test_thresholds_from_minus_20_to_30_db(self, tmp_path, capsys):
        # From the -20 dB user's threshold, water-filling's log-log Newton
        # step overflows math.expm1; the search must fall back, not crash.
        path = write_text(tmp_path / "spread.txt",
                          "noise_dbm -107.632\npmax_dbm -23.5\n"
                          "su -47.202 -20\nsu -62.939 20\nsu -76.7 30\n")
        assert main(["maxmin", "--scenario", path, "--solver", "both"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "[waterfill] theta* = 10.6925 dB (11.7287 linear), iterations = 0" in out
        (gap_line,) = [ln for ln in out if "discrepancy" in ln]
        assert float(gap_line.split()[2]) <= 2 * DEFAULT_EPSILON
        assert main(["verify", "--scenario", path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "verification: PASS"

    @pytest.mark.parametrize("solver", ["bisection", "waterfill"])
    def test_sinr_beyond_the_float_range_is_capacity_error(self, tmp_path, capsys, solver):
        # A lone user's SINR B*G/N is ~1e314, past the largest float. The file
        # parses, so this is exit 5 with a named message, and no numpy warning.
        path = write_text(tmp_path / "lone.txt", "noise_dbm -120\npmax_dbm 20\nsu 3000 10\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fmt in ("table", "csv"):
                assert main(["maxmin", "--scenario", path, "--solver", solver,
                             "--format", fmt]) == EXIT_CAPACITY
                assert capsys.readouterr() == (
                    "", f"error: [{solver}] phase-2 SINR beyond the float range "
                        "(achieved SINR = inf linear, user_index 0)\n")

    def test_csv_output(self, scenario_file, tmp_path):
        out_path = tmp_path / "m.csv"
        assert main(["maxmin", "--scenario", scenario_file, "--format", "csv",
                     "--output", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "solver,theta_linear,theta_db,iterations,user_index,power_w,achieved_db"
        assert len(lines) == 1 + 2 * 2  # both solvers x two users


#: Files where a product leaves the float range but no SINR or budget does.
FLOAT_RANGE_FILES = {
    # P_n*G_n overflows; both users end at theta* ~0.29, -5.3 dB.
    "power-times-gain": "noise_dbm 3111.7\npmax_dbm 3010\nsu 100 -30\nsu 100 -30\n",
    # P*G and the lone-user bound B*G/N overflow; theta* is 1e10, 100 dB.
    "lone-user-100-db": "noise_dbm 3030\npmax_dbm 130\nsu 3000 0\n",
    # The PU's I/g overflows, and p_max caps it.
    "pu-ratio": "noise_dbm -120\npmax_dbm 20\nsu -50 5\npu -300 3000\n",
}


class TestFloatRangeFiles:
    """Each command exits 0 on these files, with finite SINRs and no warning."""

    @pytest.mark.parametrize("name", FLOAT_RANGE_FILES)
    def test_maxmin_reports_finite_sinrs(self, tmp_path, capsys, name):
        path = write_text(tmp_path / "s.txt", FLOAT_RANGE_FILES[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["maxmin", "--scenario", path, "--format", "csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 * read_scenario(path).n_sus
        for row in rows:
            _, _, theta_db, _, _, _, achieved_db = row.split(",")
            # Every user sits at theta*; bisection's level is within epsilon of it.
            assert float(achieved_db) == pytest.approx(float(theta_db), abs=1e-4)

    @pytest.mark.parametrize("name", FLOAT_RANGE_FILES)
    def test_verify_passes(self, tmp_path, capsys, name):
        path = write_text(tmp_path / "s.txt", FLOAT_RANGE_FILES[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--scenario", path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "verification: PASS"

    def test_admit_caps_the_overflowing_pu_ratio(self, tmp_path, capsys):
        path = write_text(tmp_path / "s.txt", FLOAT_RANGE_FILES["pu-ratio"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["admit", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["budget: 0.1 W (20 dBm)", "admitted: 1 of 1"]


class TestSimulateCommand:
    def test_fig2_csv_header_and_monotone_block(self, tmp_path):
        out_path = tmp_path / "fig2.csv"
        assert main(["simulate", "--experiment", "fig2", "--pus", "0",
                     "--n-values", "6", "--targets-db", "5,15,25",
                     "--runs", "120", "--seed", "5", "--output", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "target_sinr_db,n_requesting,m_pus,runs,mean_admitted"
        means = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert means == sorted(means, reverse=True)

    def test_fig3_adds_sinr_columns(self, tmp_path):
        out_path = tmp_path / "fig3.csv"
        assert main(["simulate", "--experiment", "fig3", "--pus", "1",
                     "--n-values", "4", "--targets-db", "10", "--runs", "30",
                     "--seed", "5", "--output", str(out_path)]) == EXIT_OK
        header = out_path.read_text().splitlines()[0]
        assert header == ("target_sinr_db,n_requesting,m_pus,runs,mean_admitted,"
                          "mean_min_achieved_sinr_db,mean_all_achieved_sinr_db")

    def test_fig4_snapshot_columns(self, tmp_path):
        out_path = tmp_path / "fig4.csv"
        assert main(["simulate", "--experiment", "fig4", "--pus", "0", "--sus", "10",
                     "--seed", "3", "--output", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "user_index,gain,target_db,achieved_db,admitted"
        assert len(lines) == 11
        empty_achieved = [ln for ln in lines[1:] if ln.split(",")[3] == ""]
        for ln in empty_achieved:
            assert ln.split(",")[4] == "0"  # not admitted

    def test_table_format(self, capsys):
        assert main(["simulate", "--experiment", "fig2", "--pus", "0",
                     "--n-values", "4", "--targets-db", "10", "--runs", "20",
                     "--seed", "1", "--format", "table"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean_admitted" in out and "," not in out.splitlines()[1]

    def test_byte_identical_reruns_and_parallel(self, tmp_path):
        args = ["simulate", "--experiment", "fig2", "--pus", "1", "--n-values", "3,5",
                "--targets-db", "5,15", "--runs", "50", "--seed", "99"]
        paths = [tmp_path / f"{i}.csv" for i in range(3)]
        assert main(args + ["--output", str(paths[0])]) == EXIT_OK
        assert main(args + ["--output", str(paths[1])]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--output", str(paths[2])]) == EXIT_OK
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        assert b"\r" not in blobs[0]
