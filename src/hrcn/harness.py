"""End-to-end experiments: allocation planning over the fusion grid,
Monte-Carlo tracking with common random numbers, RMSE scoring, and
plot-ready result files."""

import csv
import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .allocator import (AllocationLayout, IntervalProblem, adam_solve,
                        baseline_random, baseline_uniform, bayesian_B,
                        compute_kernels, crb_metric_and_bound, info_scale,
                        lambda_diag, throughput_r)
from .fusion import FusionError, prior_information
from .kinematics import process_noise_cov, transition_matrix
from .scenario import MeasurementSchedule, Scenario, build_schedule
from .tracker import INIT_COV_DIAG, run_tracking

POLICIES = ("optimized", "uniform", "random")


def rmse(errors: np.ndarray, lam: np.ndarray) -> float:
    """Weighted root-mean-square tracking error, summed over targets.

    errors: (N_t, Q, 4) per-trial state errors at one fusion time; lam: the
    (4,) diagonal weight rescaling velocity components.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0 or errors.shape[0] == 0:
        raise ValueError("empty trial set")
    weighted = errors * lam[None, None, :]
    per_target = np.sqrt(np.mean(np.sum(weighted ** 2, axis=2), axis=0))
    return float(per_target.sum())


def planning_horizon(scenario: Scenario, schedule: MeasurementSchedule,
                     last: Optional[int] = None):
    """The part of the planning recursion that no policy changes, through
    interval last (by default all): (layout, problems), the scenario's
    layout and IntervalProblem.horizon's constructors, one per interval.

    Every target's prior is predicted along the noise-free truth trajectory,
    and the kernels at the predicted states and the constraint rows of the
    intervals are built in one pass, on one layout of the scenario.
    """
    layout = AllocationLayout.from_scenario(scenario)
    grid = scenario.grid
    n = grid.num_intervals if last is None else last + 1
    F = transition_matrix(grid.interval_length)
    states = [np.array([t.initial_state for t in scenario.targets])]
    for _ in range(n):
        states.append((F @ states[-1][..., None])[..., 0])
    return layout, IntervalProblem.horizon(
        scenario, schedule, layout, np.arange(n),
        compute_kernels(scenario, schedule, states[1:]))


def planning_chain(scenario: Scenario, horizon, allocate):
    """The planning recursion over the intervals of a planning_horizon.

    Each interval's problem is allocated with z = allocate(problem), and
    the Bayesian information B(z) seeds the next interval's priors.  Yields
    (problem, z, b_mats) per interval.  When allocate returns None the
    chain ends with (problem, None, None).
    """
    _, problems = horizon
    grid = scenario.grid
    F = transition_matrix(grid.interval_length)
    infos = np.array([np.linalg.inv(np.diag(INIT_COV_DIAG))
                      for _ in scenario.targets])
    gammas = process_noise_cov(grid.interval_length,
                               [t.process_noise_intensity
                                for t in scenario.targets])
    for make in problems:
        problem = make(prior_infos=prior_information(infos, F, gammas))
        z = allocate(problem)
        if z is None:
            yield problem, None, None
            return
        infos = bayesian_B(z, problem)
        yield problem, z, infos


def plan_allocations(scenario: Scenario, schedule: MeasurementSchedule,
                     policy: str, seed: int = 0, horizon=None
                     ) -> tuple[list[np.ndarray], list[float], list[list[dict]],
                                list[float]]:
    """Sequential per-interval allocation under one policy.

    The planning recursion (planning_chain) evaluates information kernels on
    the noise-free truth trajectory and chains the Bayesian prior through the
    chosen allocations, over the given planning_horizon's intervals or the
    full grid's.  Returns (allocations, per-interval metric values, traces,
    per-interval root_bcrb of the chain's information).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy '{policy}'")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA110C]))
    traces = []

    def allocate(problem):
        if policy == "optimized":
            z, tr = adam_solve(problem)
        elif policy == "uniform":
            z, tr = baseline_uniform(problem), []
        else:
            z, tr = baseline_random(problem, rng), []
        traces.append(tr)
        return z

    t0 = scenario.grid.interval_length
    allocations, g_values, bounds = [], [], []
    for _, z, b_mats in planning_chain(
            scenario, horizon or planning_horizon(scenario, schedule),
            allocate):
        allocations.append(z)
        g, bound = crb_metric_and_bound(b_mats, t0)
        g_values.append(g)
        bounds.append(bound)
    return allocations, g_values, traces, bounds


@dataclass
class PolicyResult:
    policy: str
    g_values: list            # per interval
    rmse_per_interval: list
    root_bcrb: list           # per interval, the planning chain's bound
    avg_rmse: float
    throughput: list          # (K, J) achieved nats at the planned allocation
    allocations: list         # (K, dim)
    traces: list = field(default_factory=list)


@dataclass
class ExperimentResult:
    run_id: str
    scenario_hash: str
    seed: int
    n_trials: int
    policies: dict  # name -> PolicyResult


def _feed_canonical(h, obj) -> None:
    """Feed an exact, unambiguous byte encoding of obj into the hash h:
    every dataclass field by name, arrays as dtype, shape and raw bytes,
    floats as hex, enums by value."""
    if is_dataclass(obj):
        names = [f.name for f in fields(obj)]
        h.update(f"D{type(obj).__name__}:{len(names)};".encode())
        for name in names:
            h.update(f"{name}=".encode())
            _feed_canonical(h, getattr(obj, name))
    elif isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, Enum):
        h.update(f"E{obj.value!r};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)};".encode())
        for item in obj:
            _feed_canonical(h, item)
    elif isinstance(obj, np.generic):
        _feed_canonical(h, obj.item())
    elif isinstance(obj, float):
        h.update(f"F{obj.hex()};".encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}{obj!r};".encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def scenario_fingerprint(scenario: Scenario) -> str:
    """16-hex digest of the scenario's exact contents."""
    h = hashlib.sha256()
    _feed_canonical(h, scenario)
    return h.hexdigest()[:16]


def compare_allocations(scenario: Scenario, policies, n_trials: int,
                        seed: int = 0) -> ExperimentResult:
    """Full pipeline per policy with common random numbers across policies.

    Every policy is planned on one shared planning horizon, then all of
    them are tracked in one batched run: every trial reuses the same noise
    streams regardless of policy, so RMSE differences come from the
    allocations alone.  A tracking failure is raised as the same exception
    class, naming the policy.
    """
    unknown = set(policies) - set(POLICIES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    if len(set(policies)) < len(policies):
        raise ValueError(f"repeated policies: {list(policies)}")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    schedule = build_schedule(scenario)
    horizon = planning_horizon(scenario, schedule)
    layout, _ = horizon
    grid = scenario.grid
    lam = lambda_diag(grid.interval_length)

    digest = scenario_fingerprint(scenario)
    result = ExperimentResult(
        run_id=uuid.uuid5(uuid.NAMESPACE_OID, f"{digest}:{seed}:{n_trials}").hex,
        scenario_hash=digest, seed=seed, n_trials=n_trials, policies={})

    plans = [plan_allocations(scenario, schedule, policy, seed,
                              horizon=horizon) for policy in policies]
    try:
        run = run_tracking(scenario, schedule,
                           [[info_scale(layout, z) for z in allocations]
                            for allocations, *_ in plans],
                           [[seed, t] for t in range(n_trials)])
    except (FusionError, np.linalg.LinAlgError) as exc:
        raise type(exc)(f"policy {policies[exc.plan]}: {exc}") from exc

    for p, (policy, (allocations, g_values, traces, bounds)) in enumerate(
            zip(policies, plans)):
        errors = run.means[p] - run.truth[:, :, 1:]
        rmse_k = [rmse(errors[:, :, k], lam)
                  for k in range(grid.num_intervals)]
        thr = [[throughput_r(j, allocations[k], scenario, layout,
                             schedule.counts[:, :, k])
                for j in range(scenario.comm.num_links)]
               for k in range(grid.num_intervals)]
        result.policies[policy] = PolicyResult(
            policy=policy,
            g_values=[float(g) for g in g_values],
            rmse_per_interval=[float(r) for r in rmse_k],
            root_bcrb=bounds,
            avg_rmse=float(np.mean(rmse_k)),
            throughput=thr,
            allocations=[list(map(float, z)) for z in allocations],
            traces=traces)
    return result


# ---------------------------------------------------------------------------
# result files


def save_result(result: ExperimentResult, outdir: str) -> tuple[str, str]:
    """Write manifest.json (authoritative, bit-exact round trip) and
    results.csv (plot-ready per-interval table).  Returns both paths."""
    os.makedirs(outdir, exist_ok=True)
    manifest = os.path.join(outdir, "manifest.json")
    with open(manifest, "w") as fh:
        # the result's dataclasses encode as their attribute dicts, in place
        json.dump(result, fh, indent=1, sort_keys=True, default=vars)
    csv_path = os.path.join(outdir, "results.csv")
    n_links = max(len(p.throughput[0]) if p.throughput else 0
                  for p in result.policies.values())
    header = (["run_id", "policy", "k", "g_value", "rmse", "root_bcrb"]
              + [f"throughput_j{j + 1}" for j in range(n_links)])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, pol in sorted(result.policies.items()):
            for k, (g, r, b) in enumerate(zip(pol.g_values,
                                              pol.rmse_per_interval,
                                              pol.root_bcrb)):
                writer.writerow([result.run_id, name, k, repr(g), repr(r),
                                 repr(b)]
                                + [repr(x) for x in pol.throughput[k]])
    return manifest, csv_path
