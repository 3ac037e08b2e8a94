"""Command-line entry point.

Subcommands: ``solve`` (one interval's allocation), ``simulate`` (full
K-interval tracking run), ``compare`` (policy comparison with Monte-Carlo
RMSE), ``sweep`` (throughput-floor or budget sweeps).  Output directory
defaults to $HRCN_OUTPUT_DIR or ./hrcn_out.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .allocator import (AllocationLayout, AllocatorConfig, InfeasibleError,
                        adam_solve, assemble_constraints, baseline_uniform,
                        compute_kernels, objective_g, project)
from .harness import (compare_allocations, plan_allocations, planning_chain,
                      save_result)
from .scenario import (ScenarioError, build_schedule, default_scenario_path,
                       load_scenario)
from .tracker import run_tracking


def _default_outdir() -> str:
    return os.environ.get("HRCN_OUTPUT_DIR", "hrcn_out")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default=None,
                   help="scenario YAML (default: packaged default scenario)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory")


def _load(args) -> tuple:
    path = args.scenario or default_scenario_path()
    scenario = load_scenario(path)
    return scenario, build_schedule(scenario)


def _planning_priors(scenario, schedule, cfg, k):
    """Planning priors of interval k, chained through uniform allocations."""
    if not 0 <= k < scenario.grid.num_intervals:
        raise ValueError(f"interval {k} is outside the "
                         f"{scenario.grid.num_intervals}-interval fusion grid")

    def uniform_before_k(kk, _priors):
        return baseline_uniform(scenario, schedule, kk) if kk < k else None

    *_, (priors, _, _) = planning_chain(scenario, schedule, uniform_before_k,
                                        cfg.jitter)
    return priors


def cmd_solve(args) -> int:
    scenario, schedule = _load(args)
    cfg = AllocatorConfig()
    priors = _planning_priors(scenario, schedule, cfg, args.interval)
    z, trace = adam_solve(scenario, schedule, args.interval, priors, cfg)
    layout = AllocationLayout.from_scenario(scenario)
    kernels = compute_kernels(scenario, schedule, args.interval,
                              [p.state for p in priors])
    g = objective_g(z, kernels, [p.info for p in priors], scenario, layout,
                    cfg.jitter)
    print(f"interval {args.interval}: g = {g:.6g} "
          f"({len(trace)} solver iterations)")
    names = ([f"P[mmr{i},t{q}]" for i in layout.mmr
              for q in range(scenario.n_targets)]
             + [f"T[par{i},t{q}]" for i in layout.par
                for q in range(scenario.n_targets)]
             + [f"Pc[link{j}]" for j in range(scenario.comm.num_links)])
    for name, val in zip(names, z):
        print(f"  {name} = {val:.6g}")
    return 0


def cmd_simulate(args) -> int:
    scenario, schedule = _load(args)
    cfg = AllocatorConfig()
    allocations, g_values, _ = plan_allocations(
        scenario, schedule, args.policy, cfg, args.seed)
    run = run_tracking(scenario, schedule, allocations, seed=[args.seed, 0])
    outdir = args.out or _default_outdir()
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "track_history.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "target", "k",
                         "truth_x", "truth_vx", "truth_y", "truth_vy",
                         "mean_x", "mean_vx", "mean_y", "mean_vy",
                         "cov_trace"])
        for q in range(scenario.n_targets):
            for k in range(scenario.grid.num_intervals):
                writer.writerow([0, q, k,
                                 *map(repr, run.truth[q, k + 1]),
                                 *map(repr, run.means[q, k]),
                                 repr(float(np.trace(run.covs[q, k])))])
    print(f"policy {args.policy}: per-interval g = "
          + ", ".join(f"{g:.4g}" for g in g_values))
    print(f"track history written to {path}")
    return 0


def cmd_compare(args) -> int:
    scenario, _ = _load(args)
    result = compare_allocations(scenario, args.policies, args.trials,
                                 seed=args.seed)
    outdir = args.out or _default_outdir()
    manifest, csv_path = save_result(result, outdir)
    print(f"{'policy':<12}{'avg RMSE (m)':>14}")
    for name in args.policies:
        pol = result.policies[name]
        print(f"{name:<12}{pol.avg_rmse:>14.4f}")
    print(f"results written to {manifest} and {csv_path}")
    return 0


def cmd_sweep(args) -> int:
    scenario, schedule = _load(args)
    cfg = AllocatorConfig()
    layout = AllocationLayout.from_scenario(scenario)
    priors = _planning_priors(scenario, schedule, cfg, args.interval)
    kernels = compute_kernels(scenario, schedule, args.interval,
                              [p.state for p in priors])
    prior_infos = [p.info for p in priors]
    rows = []
    warm = None
    for value in args.values:
        if args.param == "floor":
            comm = replace(scenario.comm, throughput_floor=np.full(
                scenario.comm.num_links, value))
        elif args.param == "comm-budget":
            comm = replace(scenario.comm, power_budget=value)
        else:
            raise ValueError(f"unknown sweep parameter '{args.param}'")
        swept = replace(scenario, comm=comm)
        candidates = []
        z_u, _ = adam_solve(swept, schedule, args.interval, priors, cfg)
        candidates.append(z_u)
        if warm is not None:
            A, b, _ = assemble_constraints(swept, schedule, args.interval)
            z_w, _ = adam_solve(swept, schedule, args.interval, priors, cfg,
                                z0=project(warm, A, b).z)
            candidates.append(z_w)
        scored = [(objective_g(z, kernels, prior_infos, swept, layout,
                               cfg.jitter), z) for z in candidates]
        g_best, z_best = max(scored, key=lambda t: t[0])
        warm = z_best
        rows.append((value, g_best))
        print(f"{args.param} = {value:.6g} -> g = {g_best:.6g}")
    outdir = args.out or _default_outdir()
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "g_value"])
        for value, g in rows:
            writer.writerow([repr(float(value)), repr(float(g))])
    print(f"sweep written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrcn",
        description="Resource allocation and multi-target tracking for a "
                    "heterogeneous radar-communication network")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize one interval's allocation")
    _add_common(p)
    p.add_argument("--interval", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="full tracking run under one policy")
    _add_common(p)
    p.add_argument("--policy", choices=["optimized", "uniform", "random"],
                   default="optimized")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="Monte-Carlo policy comparison")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--policies", nargs="+",
                   default=["optimized", "uniform", "random"],
                   choices=["optimized", "uniform", "random"])
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sweep a constraint parameter")
    _add_common(p)
    p.add_argument("--interval", type=int, default=0)
    p.add_argument("--param", choices=["floor", "comm-budget"],
                   default="floor")
    p.add_argument("--values", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
