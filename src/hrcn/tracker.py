"""Kalman filtering over fusion intervals: composite measurements enter as
state-space pseudo-measurements with identity measurement matrix and CRB
covariance."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .allocator import (AllocationLayout, bayesian_B, compute_kernels,
                        interference_denominators, resource_product)
from .fusion import (CompositeMeasurement, FusionError, StackedMeasurements,
                     ils_mle, prior_information)
from .kinematics import measure, process_noise_cov, transition_matrix
from .scenario import MeasurementSchedule, Scenario
from .sensing import const_kernel


@dataclass
class TrackState:
    mean: np.ndarray  # (4,)
    cov: np.ndarray   # (4, 4) symmetric PSD


@dataclass
class TrackInit:
    """Track initialization: truth perturbed by a fixed offset, with a
    configured diagonal covariance."""

    mean_offset: np.ndarray = field(
        default_factory=lambda: np.array([50.0, 5.0, -50.0, -5.0]))
    cov_diag: np.ndarray = field(
        default_factory=lambda: np.array([100.0, 10.0, 100.0, 10.0]) ** 2)


def kf_predict(track: TrackState, t0: float, gamma: np.ndarray) -> TrackState:
    F = transition_matrix(t0)
    mean = F @ track.mean
    cov = F @ track.cov @ F.T + gamma
    return TrackState(mean=mean, cov=0.5 * (cov + cov.T))


def kf_update(predicted: TrackState, cm: CompositeMeasurement) -> TrackState:
    """Identity-H Kalman update in Joseph form."""
    P, R = predicted.cov, cm.covariance
    S = P + R
    try:
        K = P @ np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "singular innovation covariance (prior and measurement both "
            "degenerate)") from exc
    mean = predicted.mean + K @ (cm.estimate - predicted.mean)
    IK = np.eye(4) - K
    cov = IK @ P @ IK.T + K @ R @ K.T
    return TrackState(mean=mean, cov=0.5 * (cov + cov.T))


@dataclass
class TrackingResult:
    """One full K-interval run: per (target, interval) truth, filtered state,
    and the Bayesian information chain."""

    truth: np.ndarray      # (Q, K+1, 4) truth at fusion times t_1..t_{K+1}
    means: np.ndarray      # (Q, K, 4) filtered means at t_2..t_{K+1}
    covs: np.ndarray       # (Q, K, 4, 4)
    info_chain: np.ndarray  # (Q, K, 4, 4) Bayesian information after each interval
    fusion_meta: list      # per (q, k) CompositeMeasurement metadata dicts


def _stack_interval(scenario: Scenario, schedule: MeasurementSchedule,
                    layout: AllocationLayout, z: np.ndarray, k: int, q: int,
                    truth_k: np.ndarray, t_k: float,
                    noise_draws: np.ndarray) -> StackedMeasurements:
    """Simulate and stack all radar measurements of target q in interval k.

    noise_draws are pre-drawn standard normals, one pair per measurement in
    schedule order, so noise streams pair across allocation policies.
    """
    denoms = interference_denominators(scenario, layout, z)
    vals, times, rxy, cdiag, rid = [], [], [], [], []
    pos = 0
    for i, radar in enumerate(scenario.radars):
        t_m = schedule.times(i, q, k)
        if len(t_m) == 0:
            continue
        kern = const_kernel(radar, scenario.targets[q].rcs[i])
        energy = resource_product(scenario, layout, z, i, q)
        cov = denoms[i] / energy * kern if energy > 0 else None
        for t in t_m:
            draws = noise_draws[pos]
            pos += 1
            if cov is None:
                continue
            F = transition_matrix(t - t_k)
            s_t = F @ truth_k
            r, th = measure(s_t, radar.position)
            sd = np.sqrt(cov)
            vals.append([r + sd[0] * draws[0], th + sd[1] * draws[1]])
            times.append(t)
            rxy.append(radar.position)
            cdiag.append(cov)
            rid.append(i)
    _, t_fuse = scenario.grid.boundary(k)
    return StackedMeasurements(values=np.array(vals, dtype=float).reshape(-1, 2),
                               times=np.array(times, dtype=float),
                               radar_xy=np.array(rxy, dtype=float).reshape(-1, 2),
                               cov_diag=np.array(cdiag, dtype=float).reshape(-1, 2),
                               radar_ids=np.array(rid, dtype=int),
                               t_fuse=t_fuse)


def run_tracking(scenario: Scenario, schedule: MeasurementSchedule,
                 allocations: list[np.ndarray], seed,
                 init: Optional[TrackInit] = None,
                 jitter: float = 1e-9) -> TrackingResult:
    """Closed-loop simulate-fuse-filter run over all fusion intervals.

    Deterministic under a fixed seed: process noise and measurement noise are
    drawn from separate child streams in a fixed iteration order, so the same
    seed pairs the noise across different allocation sequences.
    """
    ss = np.random.SeedSequence(seed)
    proc_rng, meas_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
    layout = AllocationLayout.from_scenario(scenario)
    grid = scenario.grid
    q_n, k_n = scenario.n_targets, grid.num_intervals
    F = transition_matrix(grid.interval_length)

    truth = np.zeros((q_n, k_n + 1, 4))
    means = np.zeros((q_n, k_n, 4))
    covs = np.zeros((q_n, k_n, 4, 4))
    info_chain = np.zeros((q_n, k_n, 4, 4))
    meta: list = []

    tracks, infos, gammas = [], [], []
    initc = init or TrackInit()
    for q, tgt in enumerate(scenario.targets):
        truth[q, 0] = tgt.initial_state
        cov0 = np.diag(initc.cov_diag)
        tracks.append(TrackState(mean=tgt.initial_state + initc.mean_offset,
                                 cov=cov0))
        infos.append(np.linalg.inv(cov0))
        gammas.append(process_noise_cov(grid.interval_length,
                                        tgt.process_noise_intensity))

    for k in range(k_n):
        t_k, _ = grid.boundary(k)
        z = allocations[k]
        # pre-draw the noise in schedule order, identically for any policy
        proc_draws = [proc_rng.standard_normal(4) for _ in range(q_n)]
        meas_draws = [meas_rng.standard_normal((int(schedule.counts[:, q, k].sum()), 2))
                      for q in range(q_n)]
        predicted = []
        for q in range(q_n):
            # truth advances with CV motion plus process noise
            noise = np.zeros(4)
            if scenario.targets[q].process_noise_intensity > 0:
                L = np.linalg.cholesky(gammas[q])
                noise = L @ proc_draws[q]
            truth[q, k + 1] = F @ truth[q, k] + noise
            predicted.append(kf_predict(tracks[q], grid.interval_length,
                                        gammas[q]))
            stack = _stack_interval(scenario, schedule, layout, z, k, q,
                                    truth[q, k], t_k, meas_draws[q])
            try:
                cm = ils_mle(stack, predicted[q].mean, jitter=jitter)
            except FusionError as exc:
                raise FusionError(
                    f"fusion failed for target {q} interval {k}: {exc}") from exc
            tracks[q] = kf_update(predicted[q], cm)
            means[q, k] = tracks[q].mean
            covs[q, k] = tracks[q].cov
            meta.append({"target": q, "interval": k,
                         "iterations": cm.iterations,
                         "step_norm": cm.step_norm,
                         "jittered": cm.jittered})

        # Bayesian information chain with the data term at the prior state
        kernels = compute_kernels(scenario, schedule, k,
                                  [p.mean for p in predicted])
        priors = [prior_information(infos[q], F, gammas[q], jitter)
                  for q in range(q_n)]
        infos = bayesian_B(z, kernels, priors, scenario, layout)
        info_chain[:, k] = infos

    return TrackingResult(truth=truth, means=means, covs=covs,
                          info_chain=info_chain, fusion_meta=meta)
