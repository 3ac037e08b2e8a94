"""End-to-end experiments: allocation planning over the fusion grid,
Monte-Carlo tracking with common random numbers, RMSE scoring, and
plot-ready result files."""

import csv
import hashlib
import json
import os
import uuid
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .allocator import (AllocationLayout, AllocatorConfig, PlanningPrior,
                        adam_solve, baseline_random, baseline_uniform,
                        bayesian_B, compute_kernels, crb_metric, lambda_diag,
                        throughput_r)
from .fusion import prior_information
from .kinematics import process_noise_cov, transition_matrix
from .scenario import MeasurementSchedule, Scenario, build_schedule
from .tracker import TrackInit, run_tracking

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


def planning_chain(scenario: Scenario, schedule: MeasurementSchedule,
                   allocate, jitter: float, init: Optional[TrackInit] = None):
    """The planning recursion over the fusion grid.

    For each interval k, every target's prior is predicted along the
    noise-free truth trajectory, the interval is allocated with
    z = allocate(k, priors), and the Bayesian information B(z) at the
    predicted states seeds the next interval's priors.  Yields
    (priors, z, b_mats) per interval.  When allocate returns None the chain
    ends with (priors, None, None), before interval k's kernels are computed.
    """
    layout = AllocationLayout.from_scenario(scenario)
    grid = scenario.grid
    initc = init or TrackInit()
    F = transition_matrix(grid.interval_length)
    states = [t.initial_state for t in scenario.targets]
    infos = [np.linalg.inv(np.diag(initc.cov_diag)) for _ in scenario.targets]
    gammas = [process_noise_cov(grid.interval_length, t.process_noise_intensity)
              for t in scenario.targets]
    for k in range(grid.num_intervals):
        states = [F @ s for s in states]
        priors = [PlanningPrior(state=s,
                                info=prior_information(b, F, gamma, jitter))
                  for s, b, gamma in zip(states, infos, gammas)]
        z = allocate(k, priors)
        if z is None:
            yield priors, None, None
            return
        kernels = compute_kernels(scenario, schedule, k,
                                  [p.state for p in priors])
        infos = bayesian_B(z, kernels, [p.info for p in priors], scenario,
                           layout)
        yield priors, z, infos


def plan_allocations(scenario: Scenario, schedule: MeasurementSchedule,
                     policy: str, config: Optional[AllocatorConfig] = None,
                     seed: int = 0, init: Optional[TrackInit] = None,
                     random_feasible: bool = True
                     ) -> tuple[list[np.ndarray], list[float], list[list[dict]]]:
    """Sequential per-interval allocation under one policy.

    The planning recursion (planning_chain) evaluates information kernels on
    the noise-free truth trajectory and chains the Bayesian prior through the
    chosen allocations.  Returns (allocations, per-interval metric values,
    traces).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy '{policy}'")
    cfg = config or AllocatorConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA110C]))
    traces = []

    def allocate(k, priors):
        if policy == "optimized":
            z, tr = adam_solve(scenario, schedule, k, priors, cfg)
        elif policy == "uniform":
            z, tr = baseline_uniform(scenario, schedule, k), []
        else:
            z = baseline_random(scenario, schedule, k, rng,
                                project_to_feasible=random_feasible)
            tr = []
        traces.append(tr)
        return z

    allocations, g_values = [], []
    for _, z, b_mats in planning_chain(scenario, schedule, allocate,
                                       cfg.jitter, init):
        allocations.append(z)
        g_values.append(crb_metric(b_mats, scenario.grid.interval_length,
                                   cfg.jitter))
    return allocations, g_values, traces


@dataclass
class PolicyResult:
    policy: str
    g_values: list            # per interval
    rmse_per_interval: list
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
                        seed: int = 0,
                        config: Optional[AllocatorConfig] = None,
                        init: Optional[TrackInit] = None,
                        random_feasible: bool = True) -> ExperimentResult:
    """Full pipeline per policy with common random numbers across policies.

    Every trial reuses the same noise streams regardless of policy, so RMSE
    differences come from the allocations alone.
    """
    unknown = set(policies) - set(POLICIES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    cfg = config or AllocatorConfig()
    schedule = build_schedule(scenario)
    layout = AllocationLayout.from_scenario(scenario)
    grid = scenario.grid
    lam = lambda_diag(grid.interval_length)
    counts = schedule.counts
    initc = init or TrackInit()

    result = ExperimentResult(
        run_id=uuid.uuid5(uuid.NAMESPACE_OID,
                          f"{scenario_fingerprint(scenario)}:{seed}:{n_trials}").hex,
        scenario_hash=scenario_fingerprint(scenario),
        seed=seed, n_trials=n_trials, policies={})

    for policy in policies:
        allocations, g_values, traces = plan_allocations(
            scenario, schedule, policy, cfg, seed, initc,
            random_feasible=random_feasible)
        errors = np.zeros((n_trials, grid.num_intervals,
                           scenario.n_targets, 4))
        for t in range(n_trials):
            run = run_tracking(scenario, schedule, allocations,
                               seed=[seed, t], init=initc, jitter=cfg.jitter)
            for k in range(grid.num_intervals):
                errors[t, k] = run.means[:, k] - run.truth[:, k + 1]
        rmse_k = [rmse(errors[:, k], lam) for k in range(grid.num_intervals)]
        thr = [[throughput_r(j, allocations[k], scenario, layout,
                             counts[:, :, k])
                for j in range(scenario.comm.num_links)]
               for k in range(grid.num_intervals)]
        result.policies[policy] = PolicyResult(
            policy=policy,
            g_values=[float(g) for g in g_values],
            rmse_per_interval=[float(r) for r in rmse_k],
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
        json.dump(asdict(result), fh, indent=1, sort_keys=True)
    csv_path = os.path.join(outdir, "results.csv")
    n_links = max(len(p.throughput[0]) if p.throughput else 0
                  for p in result.policies.values())
    header = (["run_id", "policy", "k", "g_value", "rmse"]
              + [f"throughput_j{j + 1}" for j in range(n_links)])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, pol in sorted(result.policies.items()):
            for k, (g, r) in enumerate(zip(pol.g_values, pol.rmse_per_interval)):
                writer.writerow([result.run_id, name, k, repr(g), repr(r)]
                                + [repr(x) for x in pol.throughput[k]])
    return manifest, csv_path


def load_result(manifest_path: str) -> ExperimentResult:
    with open(manifest_path) as fh:
        raw = json.load(fh)
    policies = {name: PolicyResult(**pol)
                for name, pol in raw.pop("policies").items()}
    return ExperimentResult(policies=policies, **raw)
