"""The three benchmark workloads, their output checks and the traced layers.

A workload is set up once per repetition (``setup``), then runs *cycles*: a
fixed list of in-process ``hrcn`` command-line calls whose outputs are kept
for the checks.  Every cycle of one run repeats the same commands on the same
inputs, so outputs and exact counts must repeat too.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import time

import numpy as np

import hrcn.cli
from hrcn import _kernels
from hrcn import allocator, fusion, harness, scenario as scenario_mod
from hrcn import sensing, tracker
from hrcn.allocator import (AllocationLayout, InfeasibleError,
                            assemble_constraints, throughput_r)
from hrcn.fusion import FusionError
from hrcn.scenario import build_schedule, default_scenario_path, load_scenario

import scenarios

# Relative tolerance of every allocation check.  `hrcn solve` prints six
# significant digits, which moves a constraint row or a throughput by up to
# about 1e-5 relative; five times that leaves no false alarms on rounding.
CHECK_RTOL = 5e-5
# Uniform-policy RMSE at the reference seed must match the recorded value
# this closely; only tracking or fusion numerics can move it.
REFERENCE_RTOL = 1e-8
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REFERENCE_SEED, REFERENCE_TRIALS = 0, 2
POLICIES = ("optimized", "uniform", "random")
# large-net runs one fixed draw of the seeded generator, and the workload seed
# drives its Monte-Carlo noise and random policy: drawing the network from the
# workload seed made planning take 0.6-2.8 s (25-89 solver iterations) from
# one seed to the next, which would swamp any change to the code.
NETWORK_SEED = 0
CAUGHT = (FusionError, InfeasibleError, np.linalg.LinAlgError, RuntimeError)


def run_cli(argv: list, probe) -> tuple[int, str, float]:
    """One in-process ``hrcn`` command: (exit code, output, normalised
    seconds; see ``speed.py``).

    The output is stdout, or stderr when the command failed; warnings on
    stderr are left out because Python shows each one only once.

    ``hrcn.cli.main`` is looked up at call time so a tracer's wrapper is the
    function that runs.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mark, start = probe.mark(), time.perf_counter()
        rc = hrcn.cli.main(argv)
        elapsed = probe.normalise(time.perf_counter() - start, mark)
    return rc, out.getvalue() if rc == 0 else err.getvalue(), elapsed


@dataclasses.dataclass
class Cycle:
    raw_seconds: float         # wall time of the whole cycle
    seconds: float             # the same, normalised (speed.py)
    call_seconds: list         # per command, normalised
    outputs: list              # per command: what the checks read


def timed_cycle(probe, body) -> Cycle:
    """Run ``body()`` -> (call_seconds, outputs) as one timed cycle."""
    mark, start = probe.mark(), time.perf_counter()
    calls, outputs = body()
    raw = time.perf_counter() - start
    return Cycle(raw, probe.normalise(raw, mark), calls, outputs)


@dataclasses.dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    g_opt: list = dataclasses.field(default_factory=list)
    g_ratio: list = dataclasses.field(default_factory=list)
    rmse_opt: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def allocation_problem(scenario, schedule, k: int, z) -> str:
    """Empty when z satisfies A z <= b, z >= 0 and every throughput floor of
    interval k within CHECK_RTOL; otherwise a description."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        return "non-finite allocation"
    A, b, labels = assemble_constraints(scenario, schedule, k)
    slack = np.abs(A) @ np.abs(z) + np.abs(b)
    viol = A @ z - b - CHECK_RTOL * slack
    if np.any(viol > 0):
        return f"violates {labels[int(np.argmax(viol))]}"
    if np.any(z < -CHECK_RTOL * max(1.0, np.abs(z).max())):
        return "negative resource"
    layout = AllocationLayout.from_scenario(scenario)
    counts = schedule.counts[:, :, k]
    for j in range(scenario.comm.num_links):
        need = scenario.comm.floor(j, k)
        if throughput_r(j, z, scenario, layout, counts) < need - CHECK_RTOL * max(1.0, need):
            return f"throughput floor of link {j} missed"
    return ""


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------


class CompareWorkload:
    """In-process ``hrcn compare`` of all three policies on one scenario."""

    ops_name = "trials"

    def __init__(self, name: str, trials: int, generated: bool):
        self.name, self.trials, self.generated = name, trials, generated
        self.ops_per_cycle = len(POLICIES) * trials
        self.min_ops = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        if self.generated:
            self.path = os.path.join(workdir, "large_net.yaml")
            scenarios.to_yaml(scenarios.large_net(NETWORK_SEED), self.path)
        else:
            self.path = default_scenario_path()
        self.scenario = load_scenario(self.path)
        self.schedule = build_schedule(self.scenario)
        self.outdir = os.path.join(workdir, "out")

    def cycle(self, probe) -> Cycle:
        argv = ["compare", "--seed", str(self.seed),
                "--trials", str(self.trials), "--out", self.outdir]
        if self.generated:
            argv += ["--scenario", self.path]

        def body():
            rc, text, secs = run_cli(argv, probe)
            manifest = None
            if rc == 0:
                with open(os.path.join(self.outdir, "manifest.json")) as fh:
                    manifest = json.load(fh)
            return [secs], [(rc, text, manifest)]
        return timed_cycle(probe, body)

    def check(self, cycle: Cycle, verdict: Verdict) -> None:
        rc, text, manifest = cycle.outputs[0]
        verdict.attempted += self.ops_per_cycle
        if rc != 0:
            verdict.fail(self.ops_per_cycle, f"hrcn compare exited {rc}: {text.strip()[-200:]}")
            return
        pols = manifest["policies"]
        for name in POLICIES:
            pol = pols[name]
            bad = ""
            if not (_finite(pol["g_values"]) and _finite(pol["rmse_per_interval"])):
                bad = "non-finite g or RMSE"
            for k, z in enumerate(pol["allocations"]):
                bad = bad or allocation_problem(self.scenario, self.schedule, k, z)
            if name == "optimized":
                low = [k for k, (go, gu) in enumerate(zip(
                    pol["g_values"], pols["uniform"]["g_values"]))
                    if go < gu * (1.0 - CHECK_RTOL)]
                if low:
                    bad = bad or f"optimized g below uniform at intervals {low}"
            if bad:
                verdict.fail(self.trials, f"{name}: {bad}")
        opt, uni = pols["optimized"]["g_values"], pols["uniform"]["g_values"]
        verdict.g_opt.extend(opt)
        verdict.g_ratio.extend(go / gu for go, gu in zip(opt, uni))
        verdict.rmse_opt.append(pols["optimized"]["avg_rmse"])

    def reference_rmse(self) -> list:
        """Uniform-policy RMSE per interval at the reference seed, computed
        through the public harness."""
        result = harness.compare_allocations(
            self.scenario, ["uniform"], REFERENCE_TRIALS, seed=REFERENCE_SEED)
        return result.policies["uniform"].rmse_per_interval

    def check_reference(self, verdict: Verdict) -> bool:
        with open(REFERENCE_FILE) as fh:
            want = json.load(fh)[self.name]
        try:
            got = self.reference_rmse()
        except CAUGHT as exc:
            verdict.problems.append(f"reference run raised {type(exc).__name__}: {exc}")
            return False
        if not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0):
            verdict.problems.append(f"uniform RMSE {got} differs from reference {want}")
            return False
        return True

    def size(self) -> dict:
        return scenarios.scenario_size(self.scenario, self.schedule)

    expected_spans = (
        "cli.main", "scenario.load_scenario", "scenario.build_schedule",
        "harness.compare_allocations", "harness.plan_allocations",
        "harness.save_result", "allocator.adam_solve", "allocator.project",
        "allocator.compute_kernels", "allocator.objective_g",
        "allocator.baseline_uniform", "allocator.baseline_random",
        "sensing.info_kernel_D", "fusion.ils_mle", "fusion.fim",
        "fusion.prior_information", "kernels.gauss_newton",
        "kernels.fim_accumulate", "tracker.run_tracking",
        "tracker.kf_predict", "tracker.kf_update")


class SolveSweepWorkload:
    """In-process ``hrcn solve --interval k`` for every interval of the
    default scenario, repeated over seeded throughput-floor variants."""

    name = "solve-sweep"
    ops_name = "solves"
    n_variants = 8
    min_ops = 100  # so at least ten latencies lie beyond the p90

    def setup(self, seed: int, workdir: str) -> None:
        base = load_scenario(default_scenario_path())
        self.schedule = build_schedule(base)
        self.k_n = base.grid.num_intervals
        self.variants, self.paths = [], []
        for v, floor in enumerate(scenarios.floor_variants(
                base, self.schedule, seed, self.n_variants)):
            sc = dataclasses.replace(
                base, comm=dataclasses.replace(base.comm, throughput_floor=floor))
            path = os.path.join(workdir, f"floor_variant_{v}.yaml")
            scenarios.to_yaml(sc, path)
            self.variants.append(sc)
            self.paths.append(path)
        self.scenario = base
        self.ops_per_cycle = self.n_variants * self.k_n
        self._uniform_g = None

    def cycle(self, probe) -> Cycle:
        def body():
            calls, outputs = [], []
            for path in self.paths:
                for k in range(self.k_n):
                    rc, text, secs = run_cli(["solve", "--scenario", path,
                                              "--interval", str(k)], probe)
                    calls.append(secs)
                    outputs.append((rc, text))
            return calls, outputs
        return timed_cycle(probe, body)

    def uniform_g(self) -> list:
        """Uniform-allocation g per (variant, interval) under the planning
        priors `hrcn solve` uses: the chain through uniform allocations."""
        if self._uniform_g is None:
            self._uniform_g = []
            for sc in self.variants:
                try:
                    g = harness.plan_allocations(sc, self.schedule, "uniform")[1]
                except CAUGHT:
                    g = None
                self._uniform_g.append(g)
        return self._uniform_g

    @staticmethod
    def parse(text: str) -> tuple[float, np.ndarray]:
        lines = text.splitlines()
        g = float(lines[0].split("g = ")[1].split()[0])
        z = [float(line.split(" = ")[1]) for line in lines[1:]
             if line.startswith("  ") and " = " in line]
        return g, np.array(z)

    def check(self, cycle: Cycle, verdict: Verdict) -> None:
        g_uni = self.uniform_g()
        for idx, (rc, text) in enumerate(cycle.outputs):
            v, k = divmod(idx, self.k_n)
            verdict.attempted += 1
            if rc != 0:
                verdict.fail(1, f"variant {v} interval {k}: exit {rc}: {text.strip()[-200:]}")
                continue
            try:
                g, z = self.parse(text)
            except (IndexError, ValueError):
                verdict.fail(1, f"variant {v} interval {k}: unreadable output")
                continue
            bad = allocation_problem(self.variants[v], self.schedule, k, z)
            if g_uni[v] is None:
                bad = bad or "uniform baseline raised"
            elif not math.isfinite(g):
                bad = bad or "non-finite g"
            elif g < g_uni[v][k] * (1.0 - CHECK_RTOL):
                bad = bad or f"g {g} below uniform {g_uni[v][k]}"
            if bad:
                verdict.fail(1, f"variant {v} interval {k}: {bad}")
                continue
            verdict.g_opt.append(g)
            verdict.g_ratio.append(g / g_uni[v][k])

    def check_reference(self, verdict: Verdict) -> bool:
        return True  # no tracking on this path

    def size(self) -> dict:
        out = scenarios.scenario_size(self.scenario, self.schedule)
        out["floors"] = [[round(float(x), 4) for x in sc.comm.throughput_floor]
                         for sc in self.variants]
        return out

    expected_spans = (
        "cli.main", "scenario.load_scenario", "scenario.build_schedule",
        "allocator.adam_solve", "allocator.project", "allocator.compute_kernels",
        "allocator.objective_g", "allocator.baseline_uniform",
        "sensing.info_kernel_D", "fusion.prior_information",
        "kernels.fim_accumulate")


def make(name: str):
    if name == "compare-default":
        return CompareWorkload(name, trials=10, generated=False)
    if name == "large-net":
        return CompareWorkload(name, trials=3, generated=True)
    if name == "solve-sweep":
        return SolveSweepWorkload()
    raise ValueError(name)



# ---------------------------------------------------------------------------
# traced layers


def _count_schedule(tr, args, kwargs, result):
    tr.counts["measurements"] = int(result.counts.sum())


def _count_solve(tr, args, kwargs, result):
    tr.counts["solver_iters"] += len(result[1])


def _count_project(tr, args, kwargs, result):
    if tr.inside("allocator.adam_solve"):
        tr.counts["solve_projections"] += 1


def _count_fix(tr, args, kwargs, result):
    tr.counts["fixes"] += 1
    tr.counts["gn_iters"] += int(result.iterations)
    tr.counts["jittered"] += int(result.jittered)


def _count_gn_rows(tr, args, kwargs, result):
    tr.counts["rows"] += int(args[1].shape[0]) * int(result[1])


def _count_fim_rows(tr, args, kwargs, result):
    tr.counts["rows"] += int(args[2].shape[0])


def _count_manifest(tr, args, kwargs, result):
    tr.counts["manifest_bytes"] += os.path.getsize(result[0])


# span name -> (module, function, hook).  Leaf helpers (kinematics,
# sensing.const_kernel, throughput_r) stay unwrapped: a wrapper would cost
# more than they do, so their time lands in their callers' self time.
TRACED = {
    "cli.main": (hrcn.cli, "main", None),
    "scenario.load_scenario": (scenario_mod, "load_scenario", None),
    "scenario.build_schedule": (scenario_mod, "build_schedule", _count_schedule),
    "harness.compare_allocations": (harness, "compare_allocations", None),
    "harness.plan_allocations": (harness, "plan_allocations", None),
    "harness.save_result": (harness, "save_result", _count_manifest),
    "allocator.adam_solve": (allocator, "adam_solve", _count_solve),
    "allocator.project": (allocator, "project", _count_project),
    "allocator.compute_kernels": (allocator, "compute_kernels", None),
    "allocator.objective_g": (allocator, "objective_g", None),
    "allocator.baseline_uniform": (allocator, "baseline_uniform", None),
    "allocator.baseline_random": (allocator, "baseline_random", None),
    "sensing.info_kernel_D": (sensing, "info_kernel_D", None),
    "fusion.ils_mle": (fusion, "ils_mle", _count_fix),
    "fusion.fim": (fusion, "fim", None),
    "fusion.prior_information": (fusion, "prior_information", None),
    "kernels.gauss_newton": (_kernels, "gauss_newton", _count_gn_rows),
    "kernels.fim_accumulate": (_kernels, "fim_accumulate", _count_fim_rows),
    "tracker.run_tracking": (tracker, "run_tracking", None),
    "tracker.kf_predict": (tracker, "kf_predict", None),
    "tracker.kf_update": (tracker, "kf_update", None),
}
