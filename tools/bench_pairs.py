#!/usr/bin/env python3
"""Paired benchmark of two source trees with perfbench.

    python3 tools/bench_pairs.py --parent ../hrcn-parent --change . \\
        --seeds 301-310 --trace-seed 311 --claim compare-default:wall_s \\
        --out BENCH_12.json

The change tree's ``BENCHMARK.json`` gives the command, the run length, the
workloads and the end-to-end metrics, each with the direction that is better
and the bound by which it may worsen.
For every seed and every workload, the command runs once with ``--trace 0``
from each tree, one process at a time.  The side that runs first alternates
from pair to pair (the parent first at odd seeds), so a slow drift of the
host's speed favours neither side.  Each tree runs its own copy of
perfbench and of the package.

The output holds, per workload and end-to-end metric, the median and
quartiles (``statistics.quantiles``, n=4, inclusive) of each side's runs,
the number of pairs the change wins (ties count for neither side) and a
regression verdict against the metric's ``bound`` in ``BENCHMARK.json``:
``worse`` when the change's median is worse than the parent's by more than
bound x the parent's median; else ``unresolved`` when the parent's
interquartile range exceeds bound x its median, unless every change run
beats every parent run; else ``ok``.  A claimed metric is met when the
change wins at least nine tenths of the pairs and its median differs from
the parent's by more than the parent's interquartile range.  With
``--trace-seed`` each side then runs once per workload with ``--trace 1``:
times there are medians over traced cycles, counts are exact.

Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_perfbench(spec: dict, tree: str, workload: str, seed: int,
                  trace: int) -> dict:
    """One benchmark process in ``tree``: its final JSON object plus the
    environment line it prints."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed "
                           f"({proc.returncode}): {proc.stderr[-500:]}")
    out = json.loads(lines[-1])
    out["env"] = next((json.loads(line[4:]) for line in lines
                       if line.startswith("env ")), {})
    return out


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def regression_verdict(better: str, bound: float, parent: list,
                       change: list) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric (module
    docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    par, chg = summary(parent), summary(change)
    scale = bound * abs(par["median"])
    if sign * (chg["median"] - par["median"]) > scale:
        return "worse"
    if (par["q3"] - par["q1"] > scale
            and not all(sign * (c - p) < 0 for c in change for p in parent)):
        return "unresolved"
    return "ok"


def compare(better: str, bound: float, parent: list, change: list) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    par, chg = summary(parent), summary(change)
    return {"parent": par, "change": chg,
            "change_wins": sum(sign * (c - p) < 0
                               for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(parent),
            "median_ratio_change_over_parent": chg["median"] / par["median"],
            "verdict": regression_verdict(better, bound, parent, change)}


def claim_verdict(workload: str, metric: str, row: dict) -> dict:
    par, chg = row["parent"], row["change"]
    iqr = par["q3"] - par["q1"]
    return {"workload": workload, "metric": metric,
            "parent_median": par["median"], "change_median": chg["median"],
            "parent_iqr": iqr, "change_wins": row["change_wins"],
            "pairs": row["pairs"],
            "met": (row["change_wins"] >= 0.9 * row["pairs"]
                    and abs(chg["median"] - par["median"]) > iqr)}


def progress_line(pair: dict) -> str:
    """The stderr line of one finished pair: each side's ``wall_s`` and
    ``peak_rss_mb``."""
    return f"seed {pair['seed']} {pair['workload']}: " + ", ".join(
        f"{metric} parent {pair['parent'][metric]:{fmt}} change "
        f"{pair['change'][metric]:{fmt}}"
        for metric, fmt in (("wall_s", ".4f"), ("peak_rss_mb", ".1f")))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--seeds", required=True,
                        help="a range lo-hi or a comma list")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--claim", default=None,
                        help="workload:metric the change claims to improve")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    pairs, env = [], {}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed, "workload": workload, "first": order[0]}
            for side in order:
                res = run_perfbench(spec, trees[side], workload, seed, 0)
                env = env or res["env"]
                pair[side] = {"correct": res["correct"],
                              "attempted": res["attempted"],
                              "failed": res["failed"],
                              **{m: res["metrics"][m]["value"]
                                 for m in metrics}}
            pairs.append(pair)
            print(progress_line(pair), file=sys.stderr)

    end_to_end, failed = {}, {}
    for workload in workloads:
        rows = [p for p in pairs if p["workload"] == workload]
        end_to_end[workload] = {
            m: compare(spec_m["better"], spec_m["bound"],
                       [p["parent"][m] for p in rows],
                       [p["change"][m] for p in rows])
            for m, spec_m in metrics.items()}
        failed[workload] = {
            side: [sum(p[side]["failed"] for p in rows),
                   sum(p[side]["attempted"] for p in rows)]
            for side in trees}
        failed[workload]["all_correct"] = all(
            p[side]["correct"] for p in rows for side in trees)

    out = {"host": {"cpus": os.cpu_count(), **{
               k: env.get(k) for k in ("python", "numpy", "scipy",
                                       "using_numba")}},
           "method": {"command": spec["command"], "seeds": seeds,
                      "seconds": spec["run_seconds"], "workloads": workloads,
                      "first": "parent at odd seeds, change at even seeds"}}
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = claim_verdict(workload, metric,
                                     end_to_end[workload][metric])
    out["verdicts"] = {workload: {m: row["verdict"]
                                  for m, row in end_to_end[workload].items()}
                       for workload in workloads}
    out["end_to_end"] = end_to_end
    out["failed_over_attempted"] = failed
    if args.trace_seed is not None:
        out["traced"] = {"seed": args.trace_seed}
        for workload in workloads:
            out["traced"][workload] = {}
            for side in trees:
                res = run_perfbench(spec, trees[side], workload,
                                    args.trace_seed, 1)
                out["traced"][workload][side] = {
                    "correct": res["correct"],
                    **{k: v["value"] for k, v in res["metrics"].items()}}
    out["pairs"] = pairs
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
