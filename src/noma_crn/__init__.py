"""Two-phase power allocation for downlink NOMA cognitive radio networks.

Phase 1 admits as many secondary users as the primary-user interference
budget allows, holding each at its SINR threshold; phase 2 spends the rest of
the budget lifting the minimum SINR among the admitted users, solved two
independent ways (feasibility bisection and an analytical water-filling walk)
that must agree. Exhaustive desk-scale oracles and Monte-Carlo experiment
drivers round out the package.
"""

from .admission import AdmissionResult, admit, required_prefix_power
from .errors import CapacityError, InfeasibleError, ScenarioParseError
from .maxmin import (
    DEFAULT_EPSILON,
    MaxMinSolution,
    feasible,
    min_power_for_targets,
    solve_bisection,
    solve_waterfill,
    total_power_curve,
)
from .model import Scenario, compute_sinr, power_budget, read_scenario, sort_users, write_scenario
from .montecarlo import (
    ChannelModel,
    ExperimentStats,
    SnapshotRow,
    channel_gain,
    draw_scenario,
    run_fig2,
    run_fig3,
    run_fig4,
    run_seed,
)
from .oracle import GridSearchResult, GridSpec, oracle_max_admitted, oracle_max_min_sinr
from .pipeline import TwoPhaseResult, run_two_phase
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__all__ = [
    "AdmissionResult",
    "CapacityError",
    "ChannelModel",
    "DEFAULT_EPSILON",
    "ExperimentStats",
    "GridSearchResult",
    "GridSpec",
    "InfeasibleError",
    "MaxMinSolution",
    "Scenario",
    "ScenarioParseError",
    "SnapshotRow",
    "TwoPhaseResult",
    "admit",
    "channel_gain",
    "compute_sinr",
    "db_to_linear",
    "dbm_to_watts",
    "draw_scenario",
    "feasible",
    "linear_to_db",
    "min_power_for_targets",
    "oracle_max_admitted",
    "oracle_max_min_sinr",
    "power_budget",
    "read_scenario",
    "required_prefix_power",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_seed",
    "run_two_phase",
    "solve_bisection",
    "solve_waterfill",
    "sort_users",
    "total_power_curve",
    "watts_to_dbm",
    "write_scenario",
]

__version__ = "0.1.0"
