"""Golden outputs: the exact bytes each subcommand writes for fixed inputs.

The first seven rows were recorded from the CLI before its option handling
was rebuilt around one option table, and the table and nobody-admitted rows
before the subcommands began returning their output lines; any change to a
byte here is a change in what users see and must be declared.
``MAXMIN_NOBODY_CSV`` is one such declared change: a CSV with nobody admitted
is its header alone.
"""

import pytest

from noma_crn.cli import EXIT_OK, main

SMALL_SCENARIO = """
# two users, one primary
noise_dbm -120
pmax_dbm 20
su -50 5
su -60 5
pu -70 -90
"""

# One user that needs ~3e5 W against a 0.1 W cap: nobody is admitted.
NOBODY_SCENARIO = """
noise_dbm -120
pmax_dbm 20
su -200 5
"""

SCENARIOS = {"s.txt": SMALL_SCENARIO, "nobody.txt": NOBODY_SCENARIO}

ADMIT_TABLE = """\
budget: 1e-05 W (-20 dBm)
admitted: 2 of 2
remaining power: 9.99552e-06 W
 user         gain  target_db      power_w admitted
    0        1e-05          5  3.16228e-10 yes
    1        1e-06          5  4.16228e-09 yes
"""

ADMIT_CSV = """\
user_index,gain,target_db,power_w,admitted
0,1e-05,5,3.16228e-10,1
1,1e-06,5,4.16228e-09,1
"""

MAXMIN_TABLE = """\
budget: 1e-05 W; admitted 2 of 2
[bisection] theta* = 24.9245 dB (310.776 linear), iterations = 37
[bisection] powers (W): 3.10776e-08 9.96892e-06
[bisection] achieved SINR (dB): 24.9245 24.9245
[waterfill] theta* = 24.9245 dB (310.776 linear), iterations = 0
[waterfill] powers (W): 3.10776e-08 9.96892e-06
[waterfill] achieved SINR (dB): 24.9245 24.9245
theta* discrepancy: 4.94469e-07 (tolerance 2*epsilon = 2e-06)
"""

MAXMIN_CSV = """\
solver,theta_linear,theta_db,iterations,user_index,power_w,achieved_db
bisection,310.776,24.9245,37,0,3.10776e-08,24.9245
bisection,310.776,24.9245,37,1,9.96892e-06,24.9245
waterfill,310.776,24.9245,0,0,3.10776e-08,24.9245
waterfill,310.776,24.9245,0,1,9.96892e-06,24.9245
"""

VERIFY_TABLE = """\
phase 1: greedy admitted 2, exhaustive best 2 -> agree
phase 2 grid: 1001820 points, resolution 70.7214 (linear SINR)
phase 2: bisection theta*=310.776 vs grid 282.885 (gap 27.9) -> agree
phase 2: waterfill theta*=310.776 vs grid 282.885 (gap 27.9) -> agree
verification: PASS
"""

FIG2_CSV = """\
target_sinr_db,n_requesting,m_pus,runs,mean_admitted
5,3,2,50,2.7
5,5,2,50,4.06
15,3,2,50,1.54
15,5,2,50,1.6
"""

FIG3_CSV = """\
target_sinr_db,n_requesting,m_pus,runs,mean_admitted,mean_min_achieved_sinr_db,mean_all_achieved_sinr_db
5,3,0,40,3,25.8452,25.8452
5,5,0,40,5,16.7938,16.7938
15,3,0,40,3,26.3233,26.3233
15,5,0,40,4.75,17.2587,17.2587
"""

FIG4_CSV = """\
user_index,gain,target_db,achieved_db,admitted
1,1.202e-07,10.0814,19.8973,1
2,9.61464e-08,16.0261,19.8973,1
3,5.814e-08,14.7678,,0
7,4.95516e-08,19.4521,,0
4,4.15073e-08,7.89554,,0
5,1.54179e-08,8.32225,,0
6,1.49122e-08,16.7148,,0
0,1.19759e-08,7.96062,,0
"""

ADMIT_NOBODY_TABLE = """\
budget: 0.1 W (20 dBm)
admitted: 0 of 1
remaining power: 0.1 W
 user         gain  target_db      power_w admitted
    0        1e-20          5            0 no
"""

MAXMIN_NOBODY_TABLE = """\
0 admitted of 1; phase 2 skipped
"""

MAXMIN_NOBODY_CSV = """\
solver,theta_linear,theta_db,iterations,user_index,power_w,achieved_db
"""

VERIFY_NOBODY = """\
phase 1: greedy admitted 0, exhaustive best 0 -> agree
phase 2: nobody admitted; nothing to verify
verification: PASS
"""

# Table rows are 134 characters wide; each is split after its third column.
FIG2_TABLE = (
    "            target_sinr_db               n_requesting                      m_pus "
    "                      runs              mean_admitted\n"
    "                         5                          3                          2 "
    "                        50                        2.7\n"
    "                         5                          5                          2 "
    "                        50                       4.06\n"
    "                        15                          3                          2 "
    "                        50                       1.54\n"
    "                        15                          5                          2 "
    "                        50                        1.6\n"
)

FIG4_TABLE = (
    "                user_index                       gain                  target_db "
    "               achieved_db                   admitted\n"
    "                         1                  1.202e-07                    10.0814 "
    "                   19.8973                          1\n"
    "                         2                9.61464e-08                    16.0261 "
    "                   19.8973                          1\n"
    "                         3                  5.814e-08                    14.7678 "
    "                                                    0\n"
    "                         7                4.95516e-08                    19.4521 "
    "                                                    0\n"
    "                         4                4.15073e-08                    7.89554 "
    "                                                    0\n"
    "                         5                1.54179e-08                    8.32225 "
    "                                                    0\n"
    "                         6                1.49122e-08                    16.7148 "
    "                                                    0\n"
    "                         0                1.19759e-08                    7.96062 "
    "                                                    0\n"
)

_SWEEP = ["--n-values", "3,5", "--targets-db", "5,15", "--seed", "11"]
_NOBODY = ["--scenario", "nobody.txt"]
_FIG2 = ["simulate", "--experiment", "fig2", "--pus", "2", "--runs", "50", *_SWEEP]
_FIG4 = ["simulate", "--experiment", "fig4", "--pus", "1", "--sus", "8", "--seed", "11"]

CASES = {
    "admit_csv": (["admit", "--format", "csv"], ADMIT_CSV),
    "maxmin_table": (["maxmin"], MAXMIN_TABLE),
    "maxmin_csv_both": (["maxmin", "--format", "csv", "--solver", "both"], MAXMIN_CSV),
    "verify": (["verify"], VERIFY_TABLE),
    "fig2": (_FIG2, FIG2_CSV),
    "fig3": (["simulate", "--experiment", "fig3", "--pus", "0", "--runs", "40", *_SWEEP],
             FIG3_CSV),
    "fig4": (_FIG4, FIG4_CSV),
    "admit_table": (["admit"], ADMIT_TABLE),
    "admit_nobody": (["admit", *_NOBODY], ADMIT_NOBODY_TABLE),
    "maxmin_nobody": (["maxmin", *_NOBODY], MAXMIN_NOBODY_TABLE),
    "maxmin_nobody_csv": (["maxmin", *_NOBODY, "--format", "csv"], MAXMIN_NOBODY_CSV),
    "verify_nobody": (["verify", *_NOBODY], VERIFY_NOBODY),
    "fig2_table": ([*_FIG2, "--format", "table"], FIG2_TABLE),
    "fig4_table": ([*_FIG4, "--format", "table"], FIG4_TABLE),
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    argv, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    for file_name, text in SCENARIOS.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    if argv[0] != "simulate" and "--scenario" not in argv:
        argv = [argv[0], "--scenario", "s.txt", *argv[1:]]
    out_path = tmp_path / "out.txt"
    assert main([*argv, "--output", str(out_path)]) == EXIT_OK
    assert out_path.read_bytes() == expected.encode("utf-8")
