"""Command-line front end: scenario files, solver runs and experiment sweeps.

Subcommands
-----------
admit     greedy admission for a scenario file (budget derived from the PUs)
maxmin    two-phase run; phase-2 solver choice bisection/waterfill/both
verify    exhaustive cross-checks of both phases on a desk-scale scenario
simulate  Monte-Carlo sweeps (fig2/fig3) or a heterogeneous-target snapshot (fig4)

Scenario files use the format in :mod:`noma_crn.model`. All user-facing
SINR/power values are dB/dBm. Each subcommand returns its exit code and its
output lines, which ``main`` writes once, to stdout or ``--output``. CSV output
uses 6 significant digits, comma separators, ``.`` decimals and LF line
endings; identical configs (including seed) produce byte-identical files.

Each option is one row of ``_OPTIONS``: its flag, config key, check, default
and the subcommands that accept it (for ``simulate``, the experiments that
read it; ``simulate`` parses every optional flag and refuses, by name, one
its experiment does not read). A ``--config file.json`` may supply any
long-option value by name (``grid_points`` for ``--grid-points``); explicit
flags win over the file, and the file over the ``NOMA_CRN_SEED`` environment
variable, which overrides the default seed. Config values pass the same
checks as flags: a bad value from any source exits 2 (usage), while unknown
config keys and an unreadable or malformed config file exit 3.

Exit codes: 0 success, 1 verification mismatch, 2 usage, 3 file parse error,
5 capacity exceeded, 6 output I/O error; 4 is unused, since admission only
admits what the budget affords. Capacity covers what
cannot be computed or checked in floating point: a file too large for an
oracle (``verify``), a phase-2 SINR beyond the float range (``maxmin``,
``verify``), and an oracle grid whose numbers are not finite, which leaves
``verify`` inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, make_dataclass
from typing import Callable

import numpy as np

from .admission import admit
from .errors import CapacityError, ScenarioParseError
from .maxmin import DEFAULT_EPSILON
from .model import power_budget, read_scenario
from .montecarlo import ChannelModel, run_fig2, run_fig3, run_fig4
from .oracle import GridSpec, oracle_max_admitted, oracle_max_min_sinr
from .pipeline import _SOLVERS, run_two_phase
from .units import db_to_linear, linear_to_db, watts_to_dbm

__all__ = ["RunConfig", "parse_config", "main", "entrypoint"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 5
EXIT_IO = 6

SEED_ENV_VAR = "NOMA_CRN_SEED"


# ----------------------------------------------------------------- options

class UsageError(Exception):
    """Missing or invalid option values detected after merging config sources."""


def _scalar(kind: type, ok=None, rule: str = ""):
    """Check for one str, int or float value; ``ok`` (described by ``rule``) bounds it.

    Text converts as a flag's would. Bools, fractions for integers and
    non-finite numbers are refused rather than truncated or passed on.
    """
    accepted = {str: (str,), int: (str, int), float: (str, int, float)}[kind]

    def check(value):
        try:
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError
            value = kind(value)
        except ValueError:
            raise ValueError(f"expected {kind.__name__}, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        if ok is not None and not ok(value):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value
    return check


def _list_of(parse):
    """Check for a JSON list or comma-separated text (blank items skipped), never empty."""
    def check(value) -> tuple:
        if isinstance(value, list):
            items = value
        else:
            items = [part for part in str(value).split(",") if part.strip()]
        if not items:
            raise ValueError(f"expected a comma list of at least one value, got {value!r}")
        return tuple(parse(item) for item in items)
    return check


def _db_range(value) -> tuple[float, float]:
    bounds = _list_of(_DB)(value)
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ValueError(f"expected 'low,high' with low <= high, got {value!r}")
    return bounds


@dataclass(frozen=True)
class _Option:
    """One option: flag ``--a-b``, config key and RunConfig field ``a_b``.

    ``commands`` names subcommands, or for ``simulate`` the experiments that
    read the option. ``default`` may be a function of the command; ``env``
    names an environment variable read after the flag and the config file.
    """

    name: str
    parse: Callable
    default: object
    commands: tuple[str, ...]
    help: str
    choices: tuple[str, ...] = ()
    required: bool = False
    env: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


# Subcommand and experiment groups, and checks that several rows share.
_FILES = ("admit", "maxmin", "verify")
_SIM = ("fig2", "fig3", "fig4")
_SWEEPS = ("fig2", "fig3")
_ALL = (*_FILES, *_SIM)
_TEXT = _scalar(str)
_COUNT = _scalar(int, lambda n: n >= 0, "at least 0")
_POSITIVE = _scalar(int, lambda n: n >= 1, "at least 1")
_DB = _scalar(float, np.errstate(over="ignore")(lambda x: 0.0 < db_to_linear(x) < math.inf),
              "a dB value whose linear value is positive and finite")

_OPTIONS = (
    _Option("scenario", _TEXT, None, _FILES, "scenario file path", required=True),
    _Option("format", _TEXT, lambda command: "csv" if command == "simulate" else "table",
            ("admit", "maxmin", *_SIM), "output format", choices=("table", "csv")),
    _Option("output", _TEXT, None, _ALL, "write results to this path instead of stdout"),
    _Option("solver", _TEXT, "both", ("maxmin",), "phase-2 solver, or both to compare",
            choices=(*_SOLVERS, "both")),
    _Option("experiment", _TEXT, None, _SIM, "figure to reproduce",
            choices=_SIM, required=True),
    _Option("pus", _COUNT, None, _SIM, "number of primary users (required)", required=True),
    _Option("sus", _COUNT, 15, ("fig4",), "requesting users for fig4"),
    _Option("n_values", _list_of(_COUNT), (5, 10, 15), _SWEEPS,
            "comma list of requesting-user counts"),
    _Option("targets_db", _list_of(_DB), (5.0, 10.0, 15.0, 20.0, 25.0), _SWEEPS,
            "comma list of targeted SINRs (dB)"),
    _Option("threshold_range_db", _db_range, (5.0, 25.0), ("fig4",),
            "low,high dB range for fig4 per-user targets"),
    _Option("runs", _POSITIVE, 10000, _SWEEPS, "Monte-Carlo runs per grid point"),
    _Option("seed", _COUNT, 0, _SIM, f"master seed (env {SEED_ENV_VAR} overrides default)",
            env=SEED_ENV_VAR),
    _Option("epsilon", _scalar(float, lambda x: x > 0.0, "strictly positive"), DEFAULT_EPSILON,
            ("maxmin", "verify"), "bisection tolerance, linear SINR"),
    _Option("grid_points", _scalar(int, lambda n: n == 0 or n >= 2, "0 (auto) or at least 2"), 0,
            ("verify",), "oracle grid points per axis (default: sized to ~1e6 total)"),
    _Option("jobs", _POSITIVE, 1, _SWEEPS, "parallel workers over grid points"),
)

RunConfig = make_dataclass(
    "RunConfig", ["command", *(opt.name for opt in _OPTIONS)], frozen=True,
    namespace={"__module__": __name__, "__doc__": "Checked option values; options the "
               "subcommand or experiment does not read are None."})


class _Parser(argparse.ArgumentParser):
    """Turns a flag argparse rejects into a UsageError, so ``main`` returns 2."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noma-crn",
        description="Two-phase NOMA power allocation under primary-user interference limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file supplying option values by name")
        scopes = _SIM if command == "simulate" else (command,)
        for opt in _OPTIONS:
            reads = any(scope in opt.commands for scope in scopes)
            # simulate also parses, unlisted in its help, the optional flags no
            # experiment reads, so that parse_config refuses them by name.
            if reads or (command == "simulate" and not opt.required):
                # Flags stay text here; parse_config checks them like config values.
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(opt.flag, dest=opt.name, metavar=metavar,
                               help=opt.help if reads else argparse.SUPPRESS)
    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(f"{path}: cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: config must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioParseError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return data


def parse_config(argv=None) -> RunConfig:
    """Merge CLI flags, optional config file, environment and defaults.

    Precedence: explicit flag > config file > NOMA_CRN_SEED (seed only) >
    built-in default. Every value passes its option's check whatever its
    source. Raises UsageError on a flag the parser rejects, a bad or missing
    value or a value the chosen experiment does not read (``--help`` still
    exits through argparse), ScenarioParseError on an unreadable
    config file, malformed JSON or an unknown key.
    """
    ns = _build_parser().parse_args(argv)
    accepted = [opt for opt in _OPTIONS if hasattr(ns, opt.name)]  # the subcommand's flags
    file_values = _load_config_file(ns.config, {opt.name for opt in accepted}) if ns.config else {}
    values = dict.fromkeys(opt.name for opt in _OPTIONS)
    given = {}
    for opt in accepted:
        sources = [(opt.flag, getattr(ns, opt.name)),
                   (f"{ns.config}: {opt.name}", file_values.get(opt.name)),
                   (opt.env, opt.env and os.environ.get(opt.env))]
        source, raw = next(((where, v) for where, v in sources if v is not None), (None, None))
        if raw is None:
            if opt.required:
                raise UsageError(f"{ns.command} requires {opt.flag}")
            values[opt.name] = opt.default(ns.command) if callable(opt.default) else opt.default
            continue
        given[opt.name] = source
        try:
            values[opt.name] = opt.parse(raw)
            if opt.choices and values[opt.name] not in opt.choices:
                raise ValueError(f"expected one of {', '.join(opt.choices)}, got {raw!r}")
        except ValueError as exc:
            raise UsageError(f"{source}: {exc}") from None
    experiment = values["experiment"]
    for opt in accepted:
        if experiment is not None and experiment not in opt.commands:
            if opt.name in given:
                raise UsageError(f"{given[opt.name]}: not read by --experiment {experiment}")
            values[opt.name] = None
    return RunConfig(command=ns.command, **values)


# ----------------------------------------------------------------- subcommands

def _fmt(value) -> str:
    """CSV cell: 6 significant digits for floats, blanks for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _csv(header, rows) -> list[str]:
    """The header and rows as CSV lines, cells formatted by ``_fmt``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_fmt(v) for v in row] for row in [header, *rows])
    return buf.getvalue().split("\n")[:-1]


def _cmd_admit(cfg: RunConfig) -> tuple[int, list[str]]:
    scenario = read_scenario(cfg.scenario)
    budget = power_budget(scenario)
    result = admit(scenario, budget)
    full = result.full_powers()
    targets_db = linear_to_db(scenario.su_thresholds) if scenario.n_sus else []
    rows = [(int(scenario.order[i]), float(scenario.su_gains[i]), float(targets_db[i]),
             float(full[i]), i < result.admitted_count) for i in range(scenario.n_sus)]
    if cfg.format == "csv":
        return EXIT_OK, _csv(("user_index", "gain", "target_db", "power_w", "admitted"), rows)
    lines = [f"budget: {budget:.6g} W ({watts_to_dbm(budget):.6g} dBm)",
             f"admitted: {result.admitted_count} of {scenario.n_sus}",
             f"remaining power: {result.remaining_power:.6g} W"]
    if rows:
        lines.append(f"{'user':>5} {'gain':>12} {'target_db':>10} {'power_w':>12} admitted")
    for idx, gain, tdb, p, adm in rows:
        lines.append(f"{idx:>5} {gain:>12.6g} {tdb:>10.6g} {p:>12.6g} {'yes' if adm else 'no'}")
    return EXIT_OK, lines


def _two_phase(scenario, names, epsilon: float) -> dict:
    """``run_two_phase`` under each named solver, refusing a SINR beyond the float range.

    Both solvers keep theta* a finite float; such a SINR leaves an inf in the
    achieved SINRs, reported here for the first such user as a CapacityError.
    """
    outcomes = {name: run_two_phase(scenario, solver=name, epsilon=epsilon) for name in names}
    for name, outcome in outcomes.items():
        sol = outcome.maxmin
        if sol is None:
            continue
        beyond = np.flatnonzero(~np.isfinite(sol.achieved_sinr))
        if beyond.size:
            i = beyond[0]
            raise CapacityError(f"[{name}] phase-2 SINR beyond the float range "
                                f"(achieved SINR = {sol.achieved_sinr[i]:.6g} linear, "
                                f"user_index {int(scenario.order[i])})")
    return outcomes


def _cmd_maxmin(cfg: RunConfig) -> tuple[int, list[str]]:
    scenario = read_scenario(cfg.scenario)
    names = list(_SOLVERS) if cfg.solver == "both" else [cfg.solver]
    outcomes = _two_phase(scenario, names, cfg.epsilon)
    first = outcomes[names[0]]
    admitted = first.admission.admitted_count
    if cfg.format == "csv":
        # With nobody admitted there is no solution row, only the header.
        rows = []
        for name, outcome in outcomes.items():
            sol = outcome.maxmin
            rows += [(name, sol.theta_star, linear_to_db(sol.theta_star), sol.iterations,
                      int(scenario.order[i]), float(sol.powers[i]),
                      float(linear_to_db(sol.achieved_sinr[i]))) for i in range(admitted)]
        return EXIT_OK, _csv(("solver", "theta_linear", "theta_db", "iterations",
                              "user_index", "power_w", "achieved_db"), rows)
    if admitted == 0:
        return EXIT_OK, [f"0 admitted of {scenario.n_sus}; phase 2 skipped"]
    lines = [f"budget: {first.budget:.6g} W; admitted {admitted} of {scenario.n_sus}"]
    for name, outcome in outcomes.items():
        sol = outcome.maxmin
        lines += [f"[{name}] theta* = {linear_to_db(sol.theta_star):.6g} dB "
                  f"({sol.theta_star:.6g} linear), iterations = {sol.iterations}",
                  f"[{name}] powers (W): " + " ".join(f"{p:.6g}" for p in sol.powers),
                  f"[{name}] achieved SINR (dB): "
                  + " ".join(f"{linear_to_db(g):.6g}" for g in sol.achieved_sinr)]
    if cfg.solver == "both":
        thetas = [outcome.maxmin.theta_star for outcome in outcomes.values()]
        gap = abs(thetas[0] - thetas[1])
        lines.append(f"theta* discrepancy: {gap:.6g} (tolerance 2*epsilon = {2 * cfg.epsilon:.6g})")
    return EXIT_OK, lines


def _cmd_verify(cfg: RunConfig) -> tuple[int, list[str]]:
    scenario = read_scenario(cfg.scenario)
    outcomes = _two_phase(scenario, _SOLVERS, cfg.epsilon)
    budget, result = outcomes["bisection"].budget, outcomes["bisection"].admission
    best_count = oracle_max_admitted(scenario, budget)
    ok = result.admitted_count == best_count
    inconclusive = False
    lines = [f"phase 1: greedy admitted {result.admitted_count}, exhaustive best {best_count} "
             f"-> {'agree' if ok else 'MISMATCH'}"]
    if 1 <= result.admitted_count <= 3:
        restricted = scenario.prefix(result.admitted_count)
        # grid_points 0 sizes the grid to ~1e6 points in total.
        points = cfg.grid_points or {1: 1_000_001, 2: 1415, 3: 181}[result.admitted_count]
        grid = GridSpec(points, budget)
        with np.errstate(over="ignore"):  # an overflowing grid is reported below
            search = oracle_max_min_sinr(restricted, budget, grid)
        lines.append(f"phase 2 grid: {search.points_checked} points, "
                     f"resolution {search.resolution:.6g} (linear SINR)")
        if not (math.isfinite(search.resolution)
                and (search.value is None or math.isfinite(search.value))):
            lines.append("phase 2 grid: resolution or value not finite, any gap would agree "
                         "-> inconclusive")
            inconclusive = True
        elif search.value is None:
            lines.append("phase 2 grid: no feasible grid point (grid too coarse)")
            ok = False
        else:
            for name, outcome in outcomes.items():
                sol = outcome.maxmin
                gap = sol.theta_star - search.value
                solver_ok = -1e-9 * max(1.0, search.value) <= gap <= search.resolution
                ok = ok and solver_ok
                lines.append(f"phase 2: {name} theta*={sol.theta_star:.6g} vs grid "
                             f"{search.value:.6g} (gap {gap:.3g}) -> "
                             f"{'agree' if solver_ok else 'MISMATCH'}")
    elif result.admitted_count > 3:
        lines.append(f"phase 2 grid: skipped ({result.admitted_count} admitted users exceed "
                     "the 3-user grid oracle)")
    else:
        lines.append("phase 2: nobody admitted; nothing to verify")
    if not ok:
        return EXIT_MISMATCH, [*lines, "verification: FAIL"]
    if inconclusive:
        return EXIT_CAPACITY, [*lines, "verification: INCONCLUSIVE"]
    return EXIT_OK, [*lines, "verification: PASS"]


_FIG2_HEADER = ("target_sinr_db", "n_requesting", "m_pus", "runs", "mean_admitted")
_FIG3_HEADER = _FIG2_HEADER + ("mean_min_achieved_sinr_db", "mean_all_achieved_sinr_db")
_FIG4_HEADER = ("user_index", "gain", "target_db", "achieved_db", "admitted")


def _cmd_simulate(cfg: RunConfig) -> tuple[int, list[str]]:
    # Each header names the fields of the records the driver returns.
    if cfg.experiment == "fig4":
        model = ChannelModel(num_sus=cfg.sus, num_pus=cfg.pus)
        records = run_fig4(model, cfg.sus, cfg.threshold_range_db, cfg.seed)
        header = _FIG4_HEADER
    else:
        model = ChannelModel(num_sus=max(cfg.n_values), num_pus=cfg.pus)
        sweep = (cfg.targets_db, cfg.n_values, cfg.runs, cfg.seed)
        if cfg.experiment == "fig2":
            records = run_fig2(model, *sweep, n_jobs=cfg.jobs)
            header = _FIG2_HEADER
        else:
            records = run_fig3(model, *sweep, n_jobs=cfg.jobs)
            header = _FIG3_HEADER
    table = [tuple(getattr(record, field) for field in header) for record in records]
    if cfg.format == "csv":
        return EXIT_OK, _csv(header, table)
    return EXIT_OK, [" ".join(f"{_fmt(v):>26}" for v in row) for row in [header, *table]]


# ----------------------------------------------------------------- entry point

_COMMANDS = {
    "admit": (_cmd_admit, "greedy admission for a scenario file"),
    "maxmin": (_cmd_maxmin, "admission plus max-min SINR redistribution"),
    "verify": (_cmd_verify, "exhaustive cross-checks on a desk-scale scenario"),
    "simulate": (_cmd_simulate, "Monte-Carlo experiment sweeps"),
}


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code (see module docstring)."""
    try:
        cfg = parse_config(argv)
        code, lines = _COMMANDS[cfg.command][0](cfg)
        text = "".join(line + "\n" for line in lines)
        if cfg.output is None:
            sys.stdout.write(text)
        else:
            with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:  # ScenarioParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
