#!/usr/bin/env python3
"""hrcn benchmark: one workload per process, measured from outside the package.

    python3 perfbench/run.py --workload compare-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Workloads (inputs come from ``--seed``; see ``workloads.py``):

* ``compare-default`` -- ``hrcn compare`` of all three policies, 10 trials, on
  the packaged scenario; tracking-bound, and the only path writing result files.
* ``solve-sweep`` -- ``hrcn solve --interval k`` for every interval of the
  default scenario under eight throughput-floor variants, slack to tight;
  solver only, no tracking.
* ``large-net`` -- ``hrcn compare`` of all three policies, 3 trials, on a
  generated 9-radar / 3-target / 4-link network with fast revisit (about 42
  measurements per fix against 17); planning is a large share.

A run sets up the workload several times, then repeats *cycles* of its
commands until ``--seconds`` have passed (``solve-sweep`` also until it has at
least 100 solves), and checks every output.  Every timing is normalised for
the host's speed at the time (``speed.py``); the raw cycle times are printed
too.  With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s`` -- import of ``hrcn`` plus the median of the repeated scenario
  set-ups (load or generate, variants written as YAML, ``build_schedule``).
* ``wall_s`` -- median time of one cycle: one ``hrcn compare`` call, or one
  ``hrcn solve`` pass over every interval of every floor variant.
* ``ops_per_s`` -- operations per second of the median cycle: Monte-Carlo
  trials (policies x trials per compare call) or ``hrcn solve`` calls.
* ``peak_rss_mb`` -- the process high-water mark.
* ``g_gain`` -- mean over intervals (and variants) of the optimized CRB metric
  g over the uniform allocation's g; a faster solver that finds worse
  allocations shows here.

With ``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics (times: medians over traced cycles; counts: exact, of one
cycle, and required to repeat).  ``<layer>.self_s`` is the time of the
layer's spans minus their child spans.  The lines before the final JSON
object give the workload-specific figures (trials_per_s, rmse_opt_m,
solve_ms_p50/p90, fail_frac, g_opt), the scenario size and the environment.

``reference.json`` holds the uniform-policy RMSE per interval at seed 0 with
2 trials, recorded with ``CompareWorkload.reference_rmse``; record it again
only when a change to tracking or fusion numerics is intended.
"""

import os

# One thread per BLAS/OpenMP pool, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, self_times, top_level_time, total_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("compare-default", "solve-sweep", "large-net")
SETUP_REPEATS = 5


def tail_percentile(samples, pct: float, min_beyond: int = 10):
    """Nearest-rank percentile, or None when fewer than ``min_beyond``
    samples lie beyond it (the value would rest on too few tail samples).
    Returns (value, samples beyond)."""
    n = len(samples)
    rank = math.ceil(pct * n / 100)
    if n == 0 or n - rank < min_beyond:
        return None, n - rank
    return sorted(samples)[rank - 1], n - rank


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(kernels) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "using_numba": bool(kernels.USING_NUMBA)}


def layer_metrics(tracer, kernels) -> dict:
    """Per-layer figures of one traced cycle (``tracing`` span arithmetic)."""
    spans, c = tracer.spans, tracer.counts
    tot = total_times(spans)
    calls = {}
    layer_self = {}
    for s, st in zip(spans, self_times(spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st
    rows = c["rows"]
    kern_s = tot["kernels.gauss_newton"] + tot["kernels.fim_accumulate"]
    return {
        "scenario.load_s": tot["scenario.load_scenario"],
        "scenario.build_schedule_s": tot["scenario.build_schedule"],
        "scenario.measurements": c["measurements"],
        "allocator.adam_solve_s": tot["allocator.adam_solve"],
        "allocator.adam_solve_calls": calls.get("allocator.adam_solve", 0),
        "allocator.solver_iters": c["solver_iters"],
        "allocator.project_s": tot["allocator.project"],
        "allocator.project_calls": calls.get("allocator.project", 0),
        "allocator.projections_per_iter":
            c["solve_projections"] / c["solver_iters"] if c["solver_iters"] else 0.0,
        "allocator.compute_kernels_s": tot["allocator.compute_kernels"],
        "allocator.objective_g_s": tot["allocator.objective_g"],
        "allocator.self_s": layer_self.get("allocator", 0.0),
        "sensing.info_kernel_D_s": tot["sensing.info_kernel_D"],
        "sensing.info_kernel_D_calls": calls.get("sensing.info_kernel_D", 0),
        "fusion.ils_mle_s": tot["fusion.ils_mle"],
        "fusion.fixes": c["fixes"],
        "fusion.gn_iters_per_fix": c["gn_iters"] / c["fixes"] if c["fixes"] else 0.0,
        "fusion.jittered": c["jittered"],
        "fusion.fim_s": tot["fusion.fim"],
        "fusion.prior_information_s": tot["fusion.prior_information"],
        "fusion.self_s": layer_self.get("fusion", 0.0),
        "kernels.gauss_newton_s": tot["kernels.gauss_newton"],
        "kernels.gauss_newton_calls": calls.get("kernels.gauss_newton", 0),
        "kernels.fim_accumulate_s": tot["kernels.fim_accumulate"],
        "kernels.fim_accumulate_calls": calls.get("kernels.fim_accumulate", 0),
        "kernels.rows": rows,
        "kernels.us_per_row": kern_s / rows * 1e6 if rows else 0.0,
        "kernels.using_numba": int(bool(kernels.USING_NUMBA)),
        "tracker.run_tracking_s": tot["tracker.run_tracking"],
        "tracker.trials": calls.get("tracker.run_tracking", 0),
        "tracker.kf_s": tot["tracker.kf_predict"] + tot["tracker.kf_update"],
        "tracker.self_s": layer_self.get("tracker", 0.0),
        "harness.compare_allocations_s": tot["harness.compare_allocations"],
        "harness.plan_allocations_s": tot["harness.plan_allocations"],
        "harness.self_s": layer_self.get("harness", 0.0),
        "harness.save_result_s": tot["harness.save_result"],
        "harness.manifest_bytes": c["manifest_bytes"],
        "cli.main_s": tot["cli.main"],
        "cli.self_s": layer_self.get("cli", 0.0),
    }


EXACT_COUNTS = ("scenario.measurements", "allocator.adam_solve_calls",
                "allocator.solver_iters", "allocator.project_calls",
                "sensing.info_kernel_D_calls", "fusion.fixes",
                "fusion.jittered", "kernels.gauss_newton_calls",
                "kernels.fim_accumulate_calls", "kernels.rows",
                "tracker.trials", "harness.manifest_bytes")


def run_workload(args, probe) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hrcn")):
        print(f"error: no hrcn sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    mark, start = probe.mark(), time.perf_counter()
    import hrcn.cli  # noqa: F401  (timed as part of set-up)
    import hrcn.harness  # noqa: F401
    import_s = probe.normalise(time.perf_counter() - start, mark)

    from hrcn import _kernels
    import workloads

    work = workloads.make(args.workload)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            mark, t0 = probe.mark(), time.perf_counter()
            work.setup(args.seed, workdir)
            setups.append(probe.normalise(time.perf_counter() - t0, mark))
        setup_s = import_s + statistics.median(setups)

        verdict = workloads.Verdict()
        plain, traced, layers = [], [], []
        ops = 0
        t_start = time.perf_counter()
        while (not plain or time.perf_counter() - t_start < args.seconds
               or (not args.trace and ops < work.min_ops)):
            cyc = work.cycle(probe)
            plain.append(cyc)
            ops += work.ops_per_cycle
            if args.trace:
                with Tracer(workloads.TRACED) as tracer:
                    tcyc = work.cycle(probe)
                missing = [n for n in work.expected_spans if not tracer.reached[n]]
                if missing:
                    verdict.problems.append(f"traced cycle never reached {missing}")
                if tcyc.outputs != cyc.outputs:
                    verdict.problems.append("traced outputs differ from untraced outputs")
                row = layer_metrics(tracer, _kernels)
                row["trace.unattributed_s"] = tcyc.raw_seconds - top_level_time(tracer.spans)
                speed = tcyc.seconds / tcyc.raw_seconds
                layers.append({k: v * speed if k.endswith(("_s", "us_per_row")) else v
                               for k, v in row.items()})
                traced.append(tcyc)

        for cyc in plain + traced:
            work.check(cyc, verdict)
        if any(c.outputs != plain[0].outputs for c in plain[1:]):
            verdict.problems.append("repeated cycles gave different outputs")
        ref_ok = work.check_reference(verdict)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(c.seconds for c in plain)
    # per median cycle: a rare probe burst can over-correct one cycle
    ops_per_s = work.ops_per_cycle / wall_s
    calls_ms = [1e3 * s for c in plain for s in c.call_seconds]
    g_gain = statistics.fmean(verdict.g_ratio) if verdict.g_ratio else float("nan")
    correct = verdict.failed == 0 and ref_ok and not verdict.problems

    # human-readable report; times are normalised (speed.py)
    print(f"workload {args.workload}  seed {args.seed}  cycles {len(plain)}"
          f" untraced / {len(traced)} traced")
    print("cycle_raw_s " + json.dumps([round(c.raw_seconds, 4) for c in plain]))
    print("cycle_s " + json.dumps([round(c.seconds, 4) for c in plain]))
    print("env " + json.dumps(environment(_kernels)))
    print("scenario " + json.dumps(work.size()))
    named = [("setup_s", setup_s, "s"), ("wall_s", wall_s, "s"),
             ("peak_rss_mb", peak_rss_mb, "MB"),
             ("fail_frac", verdict.failed / verdict.attempted, "ratio"),
             ("g_opt", statistics.fmean(verdict.g_opt) if verdict.g_opt else None, "1/m^2"),
             ("g_gain", g_gain, "ratio")]
    if work.ops_name == "trials":
        named += [("trials_per_s", ops_per_s, "1/s"),
                  ("rmse_opt_m", statistics.fmean(verdict.rmse_opt)
                   if verdict.rmse_opt else None, "m")]
    else:
        p90, beyond = tail_percentile(calls_ms, 90)
        named += [("solves_per_s", ops_per_s, "1/s"),
                  ("solve_ms_p50", statistics.median(calls_ms), "ms"),
                  ("solve_ms_p90", p90,
                   f"ms ({len(calls_ms)} samples, {beyond} beyond p90)")]
    for name, value, unit in named:
        print(f"  {name:<14} {value if value is not None else 'n/a'} {unit}")
    for why in verdict.problems:
        print(f"  problem: {why}")

    if args.trace:
        metrics = {}
        for name in layers[0]:
            if name in EXACT_COUNTS:
                values = {row[name] for row in layers}
                if len(values) != 1:
                    print(f"  problem: count {name} varies across cycles: {sorted(values)}")
                    correct = False
                metrics[name] = layers[0][name]
            else:
                metrics[name] = statistics.median(row[name] for row in layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(c.seconds for c in traced) / wall_s - 1.0)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "ops_per_s": ops_per_s,
                   "peak_rss_mb": peak_rss_mb, "g_gain": g_gain}
    print(json.dumps({"correct": bool(correct), "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_per_iter", "_per_fix", "_frac", "g_gain")):
        return "ratio"
    if name.endswith("using_numba"):
        return "flag"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with SpeedProbe() as probe:
        return run_workload(args, probe)


if __name__ == "__main__":
    sys.exit(main())
