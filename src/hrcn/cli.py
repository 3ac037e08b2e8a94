"""Command-line entry point.

Subcommands: ``solve`` (one interval's allocation), ``simulate`` (full
K-interval tracking run), ``compare`` (policy comparison with Monte-Carlo
RMSE), ``sweep`` (throughput-floor or budget sweeps).  Output directory:
``--out``, else $HRCN_OUTPUT_DIR unless it is empty, else ./hrcn_out.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .allocator import (InfeasibleError, IntervalProblem, adam_solve,
                        baseline_uniform, info_scale, objective_g,
                        start_point)
from .harness import (POLICIES, compare_allocations, plan_allocations,
                      planning_chain, planning_horizon, save_result,
                      write_csv)
from .scenario import (ScenarioError, build_schedule, default_scenario_path,
                       load_scenario, validate)
from .tracker import run_tracking


def _outdir(args) -> str:
    """--out, else $HRCN_OUTPUT_DIR unless it is empty, else hrcn_out."""
    return args.out or os.environ.get("HRCN_OUTPUT_DIR") or "hrcn_out"


def _scenario(args):
    return load_scenario(args.scenario or default_scenario_path())


def _load(args) -> tuple:
    scenario = _scenario(args)
    return scenario, build_schedule(scenario)


def _interval_problem(scenario, schedule, k):
    """Interval k's problem, its priors chained through uniform allocations
    or, in an interval whose even comm split misses a floor, through the
    point the solver starts from there (start_point)."""
    if not 0 <= k < scenario.grid.num_intervals:
        raise ValueError(f"interval {k} is outside the "
                         f"{scenario.grid.num_intervals}-interval fusion grid")

    def uniform(problem):
        if problem.k == k:
            return None
        try:
            return baseline_uniform(problem)
        except InfeasibleError:
            return problem.precond * start_point(problem, None)

    *_, (problem, _, _) = planning_chain(
        scenario, planning_horizon(scenario, schedule, k), uniform)
    return problem


def cmd_solve(args) -> int:
    scenario, schedule = _load(args)
    problem = _interval_problem(scenario, schedule, args.interval)
    z, trace = adam_solve(problem)
    g = objective_g(z, problem)
    print(f"interval {args.interval}: g = {g:.6g} "
          f"({len(trace)} solver iterations)")
    names = ([f"P[mmr{i},t{q}]" for i in problem.layout.mmr
              for q in range(scenario.n_targets)]
             + [f"T[par{i},t{q}]" for i in problem.layout.par
                for q in range(scenario.n_targets)]
             + [f"Pc[link{j}]" for j in range(scenario.comm.num_links)])
    for name, val in zip(names, z):
        print(f"  {name} = {val:.6g}")
    return 0


def cmd_simulate(args) -> int:
    scenario, schedule = _load(args)
    horizon = planning_horizon(scenario, schedule)
    allocations, g_values, *_ = plan_allocations(
        scenario, schedule, args.policy, args.seed, horizon=horizon)
    layout, _ = horizon
    run = run_tracking(scenario, schedule,
                       [[info_scale(layout, z) for z in allocations]],
                       [[args.seed, 0]])
    path = os.path.join(_outdir(args), "track_history.csv")
    write_csv(path, ["trial", "target", "k",
                     "truth_x", "truth_vx", "truth_y", "truth_vy",
                     "mean_x", "mean_vx", "mean_y", "mean_vy", "cov_trace"],
              ([0, q, k, *run.truth[0, q, k + 1], *run.means[0, 0, q, k],
                np.trace(run.covs[0, 0, q, k])]
               for q in range(scenario.n_targets)
               for k in range(scenario.grid.num_intervals)))
    print(f"policy {args.policy}: per-interval g = "
          + ", ".join(f"{g:.4g}" for g in g_values))
    print(f"track history written to {path}")
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario(args)
    result = compare_allocations(scenario, args.policies, args.trials,
                                 seed=args.seed)
    manifest, csv_path = save_result(result, _outdir(args))
    print(f"{'policy':<12}{'avg RMSE (m)':>14}{'avg root-BCRB (m)':>19}")
    for name in args.policies:
        pol = result.policies[name]
        print(f"{name:<12}{pol.avg_rmse:>14.4f}"
              f"{float(np.mean(pol.root_bcrb)):>19.4f}")
    print(f"results written to {manifest} and {csv_path}")
    return 0


def cmd_sweep(args) -> int:
    """Solve one interval per swept value.  Each value keeps the base
    scenario's kernels and uniform-chained priors, and only A and b change;
    ``hrcn solve --scenario <variant>`` chains the variant's own priors,
    which a comm budget moves and a floor does not.  The first value is
    solved cold, and each later one continues from the previous value's
    plan, so the order of the values matters."""
    scenario, schedule = _load(args)
    variants = []
    for value in args.values:
        if args.param == "floor":
            comm = replace(scenario.comm, throughput_floor=np.full(
                scenario.comm.num_links, value))
        else:
            comm = replace(scenario.comm, power_budget=value)
        variants.append(replace(scenario, comm=comm))
        validate(variants[-1])
    base = _interval_problem(scenario, schedule, args.interval)
    rows, z = [], None
    for value, variant in zip(args.values, variants):
        problem = IntervalProblem.build(variant, schedule, base.k, base.layout,
                                        base.kernels, base.prior_infos)
        z, _ = adam_solve(problem, z)
        g = objective_g(z, problem)
        rows.append((value, g))
        print(f"{args.param} = {value:.6g} -> g = {g:.6g}")
    path = os.path.join(_outdir(args), "sweep.csv")
    write_csv(path, [args.param, "g_value"], rows)
    print(f"sweep written to {path}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an int of at least low, else a usage error, which
    argparse reports with the option's name."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="hrcn",
        description="Resource allocation and multi-target tracking for a "
                    "heterogeneous radar-communication network")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize one interval's allocation")
    p.add_argument("--interval", type=int, default=0)

    p = sub.add_parser("simulate", help="full tracking run under one policy")
    p.add_argument("--policy", choices=POLICIES, default="optimized")

    p = sub.add_parser("compare", help="Monte-Carlo policy comparison")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--policies", nargs="+", default=list(POLICIES),
                   choices=POLICIES)

    p = sub.add_parser("sweep", help="sweep a constraint parameter")
    p.add_argument("--interval", type=int, default=0)
    p.add_argument("--param", choices=["floor", "comm-budget"],
                   default="floor")
    p.add_argument("--values", type=float, nargs="+", required=True)
    # only simulate and compare draw random numbers; solve writes no file
    for name, p in sub.choices.items():
        p.add_argument("--scenario", default=None,
                       help="scenario YAML (default: packaged default scenario)")
        if name in ("simulate", "compare"):
            p.add_argument("--seed", type=_int_at_least(0), default=0)
        if name != "solve":
            p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a patched cmd_<name> is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ScenarioError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
