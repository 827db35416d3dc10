"""Benchmark of the noma_crn two-phase power allocator.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each is there):

* ``fig3_sweep``: ``run_fig3`` on the paper grid with 0 PUs (phase 2 runs).
* ``fig2_sweep_pu``: ``run_fig2`` on the same grid with 2 PUs (no phase 2).
* ``alloc_hetero``: ``run_two_phase`` on scenarios drawn in set-up, with
  heterogeneous thresholds, once per solver.

One process, one thread. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from spans recorded around the package's public calls. A
fuller record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import reference
from checks import PointTally, check_allocations, check_sweep_against_reference, check_sweep_stats
from tracing import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("fig3_sweep", "fig2_sweep_pu", "alloc_hetero")
SWEEP_PUS = {"fig3_sweep": 0, "fig2_sweep_pu": 2}
TARGETS_DB = (5.0, 10.0, 15.0, 20.0, 25.0)
N_VALUES = (5, 10, 15)
#: Monte-Carlo runs per grid-point operation: room for a run-batched kernel.
RUNS_PER_POINT = 50
#: Reference Monte-Carlo rows per grid point, drawn after timing.
REFERENCE_ROWS = 10_000
#: Scenario mix of alloc_hetero: user counts 5..30 and 0..2 PUs cycle
#: together (26 and 3 are coprime), so every 78 scenarios hold each pair once.
ALLOC_SCENARIOS = 390
ALLOC_USERS = tuple(range(5, 31))
ALLOC_PUS = (0, 1, 2)
THRESHOLD_CLASSES_DB = (0.0, 3.0, 6.0, 10.0)
SOLVERS = ("bisection", "waterfill")
#: Experiment id handed to run_seed for alloc_hetero draws; the package's
#: own experiments use 2, 3 and 4.
ALLOC_EXPERIMENT_ID = 7
#: Set-up trials per untraced run, spread evenly over the timed window. The
#: host changes speed over tens of seconds; the best of trials taken across
#: the whole window, like the best time of each timed operation, keeps a
#: slow stretch out of the figure.
SETUP_TRIALS = 12

END_TO_END_UNITS = {
    "runs_per_s": "1/s", "allocs_per_s": "1/s", "alloc_p50_us": "us",
    "alloc_p90_us": "us", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "montecarlo.run_seed_us": "us", "montecarlo.draw_us": "us",
    "montecarlo.driver_self_us": "us", "model.sort_users_us": "us",
    "model.prefix_us": "us", "model.power_budget_us": "us",
    "model.scenarios_per_op": "count", "admission.admit_us": "us",
    "admission.admitted_per_op": "count", "maxmin.waterfill_us": "us",
    "maxmin.bisection_us": "us", "maxmin.bisection_iterations": "count",
    "units.conversion_us": "us", "pipeline.self_us": "us",
    "host.ref_loop_us": "us", "bench.trace_overhead_us": "us",
}


def import_package():
    """Import noma_crn from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import noma_crn

    found = os.path.dirname(os.path.abspath(noma_crn.__file__))
    if found != os.path.join(SRC, "noma_crn"):
        raise SystemExit(f"noma_crn imported from {found}, not from {SRC}")
    return noma_crn


def host_probe_us() -> float:
    """Median time of a fixed pure-Python loop: a speed probe of the host."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(perf_counter() - start)
    return 1e6 * statistics.median(samples)


#: Names that montecarlo looks up at call time, and the layer each is timed as.
MONTECARLO_SPANS = {
    "run_seed": "run_seed", "draw_scenario": "draw", "sort_users": "sort_users",
    "power_budget": "power_budget", "admit": "admit", "solve_waterfill": "waterfill",
    "db_to_linear": "units", "dbm_to_watts": "units", "linear_to_db": "units",
}
DRAW_SPANS = ("run_seed", "draw_scenario", "sort_users", "db_to_linear", "dbm_to_watts")
#: Names that pipeline looks up at call time, and the layer each is timed as.
PIPELINE_SPANS = {"power_budget": "power_budget", "admit": "admit",
                  "solve_bisection": "bisection", "solve_waterfill": "waterfill"}


def module_patches(module, tracer, spans, names):
    """Span wrappers for those of ``names`` that ``module`` still defines."""
    return [(module, attr, tracer.span(spans[attr], vars(module)[attr]))
            for attr in names if attr in vars(module)]


def scenario_patches(nc, tracer):
    """Span around ``Scenario.prefix`` and a count of ``Scenario`` validations."""
    scenario = nc.Scenario
    return [(scenario, "prefix", tracer.span("prefix", scenario.prefix)),
            (scenario, "__post_init__", tracer.counter("scenarios", scenario.__post_init__))]


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


# ------------------------------------------------------------------- sweeps

class Sweep:
    """fig3_sweep / fig2_sweep_pu. One operation is one grid-point call."""

    def __init__(self, nc, name: str, seed: int, tracer=None):
        self.nc = nc
        self.seed = seed
        self.phase2 = name == "fig3_sweep"
        self.n_pus = SWEEP_PUS[name]
        self.driver = nc.run_fig3 if self.phase2 else nc.run_fig2
        self.model = nc.ChannelModel(num_sus=N_VALUES[0], num_pus=self.n_pus)
        self.grid = [(t, n) for t in TARGETS_DB for n in N_VALUES]
        self.tracer = tracer
        if tracer:
            self.patches = (module_patches(nc.montecarlo, tracer, MONTECARLO_SPANS,
                                           MONTECARLO_SPANS) + scenario_patches(nc, tracer))
        self.tallies = [PointTally(t, n) for t, n in self.grid]
        self.failures, self.errors = [], []
        self.attempted = self.failed = 0
        # Per grid point, its best seconds over the rounds, untraced and traced.
        self.best = [math.inf] * len(self.grid)
        self.traced_best = [math.inf] * len(self.grid)
        self.traced_runs = 0
        self.driver_self = 0.0

    def warm_up(self) -> None:
        for n in N_VALUES:
            _quietly(self.driver, self.model, [TARGETS_DB[0]], [n], 10, self.seed)

    def run_pass(self, pass_index: int):
        """One call per grid point, each with its own master seed.

        Returns per operation its stats (or exception) and its seconds.
        """
        seeds = [derived_seed(self.seed, pass_index, g) for g in range(len(self.grid))]
        ops = []
        for (target, n), master in zip(self.grid, seeds):
            t0 = perf_counter()
            try:
                out = self.driver(self.model, [target], [n], RUNS_PER_POINT, master)[0]
            except Exception as exc:  # counted as a failed operation
                out = exc
            ops.append((out, perf_counter() - t0))
        return ops

    def run_round(self, pass_index: int) -> None:
        ops = self.run_pass(pass_index)
        for g, ((out, op_s), (target, n)) in enumerate(zip(ops, self.grid)):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.errors.append(f"grid point {target:g} dB, N={n}: {out!r}")
                continue
            self.best[g] = min(self.best[g], op_s)
            self.failures += check_sweep_stats(out, target, n, RUNS_PER_POINT, self.phase2)
            self.tallies[g].add(out)
        if not self.tracer:
            return
        # The same pass again, traced: same seeds, so same outputs.
        top_before = self.tracer.top_level
        with patched(self.patches):
            traced_ops = self.run_pass(pass_index)
        self.attempted += len(traced_ops)
        for g, ((out, op_s), (plain, _)) in enumerate(zip(traced_ops, ops)):
            target, n = self.grid[g]
            if isinstance(out, Exception):
                self.failed += 1
                self.errors.append(f"traced grid point {target:g} dB, N={n}: {out!r}")
                continue
            if not isinstance(plain, Exception) and out != plain:
                self.failures.append(f"grid point {target:g} dB, N={n}: traced output differs")
            self.traced_best[g] = min(self.traced_best[g], op_s)
            self.traced_runs += RUNS_PER_POINT
            self.driver_self += op_s
        self.driver_self -= self.tracer.top_level - top_before

    def end_to_end(self) -> dict:
        per_run_us = 1e6 / RUNS_PER_POINT * np.array([b for b in self.best if b < math.inf])
        if not per_run_us.size:
            return dict.fromkeys(("runs_per_s", "allocs_per_s", "alloc_p50_us", "alloc_p90_us"), 0.0)
        runs_per_s = 1e6 * per_run_us.size / per_run_us.sum()
        # Over the 15 grid points' best per-run times: the grid's make-up,
        # not a latency, since one run has no untraced timing of its own.
        p50, p90 = np.percentile(per_run_us, [50, 90])
        # Each Monte-Carlo run makes exactly one two-phase allocation.
        return {"runs_per_s": runs_per_s, "allocs_per_s": runs_per_s,
                "alloc_p50_us": float(p50), "alloc_p90_us": float(p90)}

    def per_layer(self) -> dict:
        tracer, runs = self.tracer, self.traced_runs
        admitted = sum(t.admitted for t in self.tallies) / sum(t.runs for t in self.tallies)
        return {
            "montecarlo.run_seed_us": tracer.per_call_us("run_seed"),
            "montecarlo.draw_us": tracer.per_call_us("draw", self_only=True),
            "montecarlo.driver_self_us": 1e6 * self.driver_self / runs,
            "model.sort_users_us": tracer.per_call_us("sort_users"),
            "model.prefix_us": tracer.per_call_us("prefix"),
            "model.power_budget_us": tracer.per_call_us("power_budget"),
            "model.scenarios_per_op": tracer.counts["scenarios"] / runs,
            "admission.admit_us": tracer.per_call_us("admit"),
            "admission.admitted_per_op": admitted,
            "maxmin.waterfill_us": tracer.per_call_us("waterfill"),
            "maxmin.bisection_us": 0.0,
            "maxmin.bisection_iterations": 0.0,
            "units.conversion_us": tracer.per_call_us("units"),
            "pipeline.self_us": 0.0,
            "bench.trace_overhead_us": 1e6 / RUNS_PER_POINT * statistics.mean(
                t - u for t, u in zip(self.traced_best, self.best)),
        }

    def check(self) -> tuple[list[str], list]:
        failures, refs = [], []
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1 + self.n_pus, 99]))
        for tally in self.tallies:
            if tally.runs == 0:
                continue
            found, ref = check_sweep_against_reference(tally, self.n_pus, self.phase2, rng,
                                                       REFERENCE_ROWS)
            failures += found
            refs.append({"target_db": tally.target_db, "n": tally.n_requesting,
                         "runs": tally.runs, "mean_admitted": tally.admitted / tally.runs,
                         "reference": ref})
        return failures, refs


# ------------------------------------------------------------ alloc_hetero

class AllocHetero:
    """run_two_phase on pre-drawn scenarios. One operation is one call."""

    def __init__(self, nc, seed: int, tracer=None):
        self.nc = nc
        self.seed = seed
        self.tracer = tracer
        rng = np.random.default_rng(np.random.SeedSequence([seed, ALLOC_EXPERIMENT_ID]))
        mc = nc.montecarlo
        # Draws happen in set-up, so set-up is where they are traced.
        draw_patches = module_patches(mc, tracer, MONTECARLO_SPANS, DRAW_SPANS) if tracer else []
        self.scenarios = []
        with patched(draw_patches):
            for i in range(ALLOC_SCENARIOS):
                n = ALLOC_USERS[i % len(ALLOC_USERS)]
                model = nc.ChannelModel(num_sus=n, num_pus=ALLOC_PUS[i % len(ALLOC_PUS)])
                thresholds_db = rng.choice(THRESHOLD_CLASSES_DB, n)
                seed_i = mc.run_seed(seed, ALLOC_EXPERIMENT_ID, i)
                self.scenarios.append(mc.draw_scenario(model, seed_i, thresholds_db))
        self.tasks = [(s, solver) for s in self.scenarios for solver in SOLVERS]
        if tracer:
            pipeline = nc.pipeline
            self.patches = (module_patches(pipeline, tracer, PIPELINE_SPANS, PIPELINE_SPANS)
                            + scenario_patches(nc, tracer))
            if "_SOLVERS" in vars(pipeline):
                # run_two_phase picks its solver from this table, which holds
                # the functions themselves, not their module names.
                solvers = {name: tracer.span(name, fn) for name, fn in pipeline._SOLVERS.items()}
                self.patches.append((pipeline, "_SOLVERS", solvers))
            self.traced_call = tracer.span("pipeline", nc.run_two_phase)
        self.failures, self.errors = [], []
        self.attempted = self.failed = 0
        self.first = None
        self.latencies = np.empty(len(self.tasks))
        # Per task, its best seconds over the rounds, untraced and traced.
        self.best = np.full(len(self.tasks), math.inf)
        self.traced_best = np.full(len(self.tasks), math.inf)
        # Best per-round percentiles of the untraced call latencies.
        self.p50 = self.p90 = math.inf

    def warm_up(self) -> None:
        for scenario, solver in self.tasks[:156]:
            _quietly(self.nc.run_two_phase, scenario, solver=solver)

    def run_tasks(self, run_two_phase):
        """Every task once; its seconds go to ``self.latencies`` (inf if it failed)."""
        results = []
        for i, (scenario, solver) in enumerate(self.tasks):
            t0 = perf_counter()
            try:
                out = run_two_phase(scenario, solver=solver)
            except Exception as exc:  # counted as a failed operation
                out = exc
                t0 = -math.inf
            self.latencies[i] = perf_counter() - t0
            results.append(out)
        return results

    def _tally(self, results, label: str) -> None:
        self.attempted += len(results)
        for i, out in enumerate(results):
            if isinstance(out, Exception):
                self.failed += 1
                self.errors.append(f"{label}task {i}: {out!r}")
            # The first round is checked in full against the reference after
            # timing; every later call must repeat it exactly.
            elif (self.first is not None and not isinstance(self.first[i], Exception)
                  and not _same(self.first[i], out)):
                self.failures.append(f"{label}task {i}: output differs from round 1")

    def run_round(self, index: int) -> None:
        results = self.run_tasks(self.nc.run_two_phase)
        np.minimum(self.best, self.latencies, out=self.best)
        done = self.latencies[np.isfinite(self.latencies)]
        if done.size:
            p50, p90 = np.percentile(done, [50, 90])
            self.p50, self.p90 = min(self.p50, p50), min(self.p90, p90)
        self._tally(results, "")
        if self.first is None:
            self.first = results
        if not self.tracer:
            return
        with patched(self.patches):
            results = self.run_tasks(self.traced_call)
        np.minimum(self.traced_best, self.latencies, out=self.traced_best)
        self._tally(results, "traced ")

    def end_to_end(self) -> dict:
        best = self.best[np.isfinite(self.best)]
        if not best.size:
            return dict.fromkeys(("runs_per_s", "allocs_per_s", "alloc_p50_us", "alloc_p90_us"), 0.0)
        allocs_per_s = best.size / best.sum()
        # A run is one scenario, solved once by each solver.
        return {"runs_per_s": allocs_per_s / len(SOLVERS), "allocs_per_s": allocs_per_s,
                "alloc_p50_us": 1e6 * float(self.p50), "alloc_p90_us": 1e6 * float(self.p90)}

    def per_layer(self) -> dict:
        tracer = self.tracer
        calls = tracer.calls["pipeline"]
        solved = [(solver, r) for (_, solver), r in zip(self.tasks, self.first)
                  if not isinstance(r, Exception)]
        iterations = [r.maxmin.iterations for solver, r in solved
                      if solver == "bisection" and r.maxmin is not None]
        ok = np.isfinite(self.traced_best) & np.isfinite(self.best)
        return {
            "montecarlo.run_seed_us": tracer.per_call_us("run_seed"),
            "montecarlo.draw_us": tracer.per_call_us("draw", self_only=True),
            "montecarlo.driver_self_us": 0.0,
            "model.sort_users_us": tracer.per_call_us("sort_users"),
            "model.prefix_us": tracer.per_call_us("prefix"),
            "model.power_budget_us": tracer.per_call_us("power_budget"),
            "model.scenarios_per_op": tracer.counts["scenarios"] / calls,
            "admission.admit_us": tracer.per_call_us("admit"),
            "admission.admitted_per_op": statistics.mean(
                r.admission.admitted_count for _, r in solved),
            "maxmin.waterfill_us": tracer.per_call_us("waterfill"),
            "maxmin.bisection_us": tracer.per_call_us("bisection"),
            "maxmin.bisection_iterations": statistics.mean(iterations) if iterations else 0.0,
            "units.conversion_us": tracer.per_call_us("units"),
            "pipeline.self_us": tracer.per_call_us("pipeline", self_only=True),
            "bench.trace_overhead_us": 1e6 * float(np.mean(self.traced_best[ok] - self.best[ok])),
        }

    def check(self) -> tuple[list[str], list]:
        by_scenario = [{} for _ in self.scenarios]
        for i, ((_, solver), result) in enumerate(zip(self.tasks, self.first)):
            if not isinstance(result, Exception):
                by_scenario[i // len(SOLVERS)][solver] = result
        return check_allocations(self.scenarios, by_scenario, self.nc.DEFAULT_EPSILON), []


def _quietly(fn, *args, **kwargs) -> None:
    """Warm-up call; a failure is left for the timed operations to count."""
    try:
        fn(*args, **kwargs)
    except Exception:
        pass


def _same(a, b) -> bool:
    """Bitwise equality of two TwoPhaseResults."""
    if a.admission.admitted_count != b.admission.admitted_count:
        return False
    if not np.array_equal(a.admission.powers, b.admission.powers):
        return False
    if (a.maxmin is None) != (b.maxmin is None):
        return False
    return a.maxmin is None or (a.maxmin.theta_star == b.maxmin.theta_star
                                and np.array_equal(a.maxmin.powers, b.maxmin.powers))


# -------------------------------------------------------------------- main

def build(nc, workload: str, seed: int, tracer=None):
    if workload == "alloc_hetero":
        return AllocHetero(nc, seed, tracer)
    return Sweep(nc, workload, seed, tracer)


def setup_trial(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation.

    The child runs this file with --setup-only: it imports, builds the
    workload's inputs, warms up and prints "ready".
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"set-up trial failed with exit code {code}")
    return elapsed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        workload = build(import_package(), args.workload, args.seed)
        workload.warm_up()
        print("ready", flush=True)
        return 0
    nc = import_package()
    failures = reference.self_check()
    if failures:
        raise SystemExit("reference self-check failed: " + "; ".join(failures))
    tracer = Tracer() if args.trace else None
    workload = build(nc, args.workload, args.seed, tracer)
    workload.warm_up()
    host_start = host_probe_us()
    # Whole rounds until the window closes. In an untraced run, set-up trial
    # k runs between rounds once k/SETUP_TRIALS of the window has passed.
    trials_due = 0 if args.trace else SETUP_TRIALS
    setup_trials = []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < args.seconds:
        if len(setup_trials) < trials_due and (
                perf_counter() - start >= len(setup_trials) * args.seconds / SETUP_TRIALS):
            setup_trials.append(setup_trial(args))
        workload.run_round(rounds)
        rounds += 1
    while len(setup_trials) < trials_due:
        setup_trials.append(setup_trial(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_end = host_probe_us()
    check_failures, reference_points = workload.check()
    failures = workload.failures + check_failures

    if args.trace:
        values = workload.per_layer()
        values["host.ref_loop_us"] = 0.5 * (host_start + host_end)
        units = PER_LAYER_UNITS
    else:
        values = workload.end_to_end()
        values["peak_rss_mb"] = peak_rss_mb
        values["setup_s"] = min(setup_trials)
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}

    for line in (workload.errors + failures)[:20]:
        print(line, file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_trials_s=setup_trials,
                  host_ref_loop_us={"start": host_start, "end": host_end}, rounds=rounds,
                  failures=failures[:100], errors=workload.errors[:100],
                  reference=reference_points)
    if tracer:
        record["spans"] = {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                                  "self_s": tracer.self_time[name]} for name in tracer.calls}
        record["counts"] = dict(tracer.counts)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
