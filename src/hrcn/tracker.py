"""Kalman filtering over fusion intervals: composite measurements enter as
state-space pseudo-measurements with identity measurement matrix and CRB
covariance."""

from dataclasses import dataclass

import numpy as np

from .fusion import (CompositeMeasurement, FusionError, StackedMeasurements,
                     ils_mle, inv_psd)
from .kinematics import measure, process_noise_cov, transition_matrix
from .scenario import IntervalRows, MeasurementSchedule, Scenario


@dataclass
class TrackState:
    mean: np.ndarray  # (4,)
    cov: np.ndarray   # (4, 4) symmetric PSD


# Track initialization: every track starts at its truth perturbed by this
# offset, with this diagonal covariance, which the planning chain also starts
# from
INIT_MEAN_OFFSET = np.array([50.0, 5.0, -50.0, -5.0])
INIT_COV_DIAG = np.array([100.0, 10.0, 100.0, 10.0]) ** 2


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
        K = P @ inv_psd(S, 0.0)[0]
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
    """One full K-interval run: per (target, interval) truth and filtered
    state."""

    truth: np.ndarray      # (Q, K+1, 4) truth at fusion times t_1..t_{K+1}
    means: np.ndarray      # (Q, K, 4) filtered means at t_2..t_{K+1}
    covs: np.ndarray       # (Q, K, 4, 4)


def _stack_interval(rows: IntervalRows, scale: np.ndarray,
                    truth_k: np.ndarray, t_k: float, t_fuse: float,
                    noise_draws: np.ndarray) -> StackedMeasurements:
    """Simulate and stack one target's measurements in one interval.

    rows are the interval's schedule rows and scale (N,) the info_scale of
    every radar on this target: a row's covariance is its kernel over its
    radar's scale.  noise_draws are pre-drawn standard normals, one pair per
    schedule row, so noise streams pair across allocation policies; a radar
    with zero energy consumes its draws and stacks no rows.
    """
    row_scale = scale[rows.radar]
    keep = row_scale > 0
    times = rows.times[keep]
    radar_xy = rows.radar_xy[keep]
    cov = rows.kernel[keep] / row_scale[keep, None]
    # constant-velocity motion from the interval start: x_k + (t - t_k) v_k
    drift = np.array([truth_k[1], 0.0, truth_k[3], 0.0])
    r, th = measure(truth_k + (times - t_k)[:, None] * drift, radar_xy)
    return StackedMeasurements(
        values=np.stack([r, th], axis=1) + np.sqrt(cov) * noise_draws[keep],
        times=times, radar_xy=radar_xy, cov_diag=cov,
        radar_ids=rows.radar[keep], t_fuse=t_fuse)


def run_tracking(scenario: Scenario, schedule: MeasurementSchedule,
                 scales: list[np.ndarray], seed) -> TrackingResult:
    """Closed-loop simulate-fuse-filter run over all fusion intervals.

    scales[k] (N, Q) is the allocator's info_scale of interval k's
    allocation: the weight of every radar's measurements on every target.

    Deterministic under a fixed seed: process noise and measurement noise are
    drawn from separate child streams in a fixed iteration order, so the same
    seed pairs the noise across different allocation sequences.
    """
    ss = np.random.SeedSequence(seed)
    proc_rng, meas_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
    grid = scenario.grid
    q_n, k_n = scenario.n_targets, grid.num_intervals
    F = transition_matrix(grid.interval_length)

    truth = np.zeros((q_n, k_n + 1, 4))
    means = np.zeros((q_n, k_n, 4))
    covs = np.zeros((q_n, k_n, 4, 4))

    tracks, gammas, chols = [], [], []
    for q, tgt in enumerate(scenario.targets):
        truth[q, 0] = tgt.initial_state
        tracks.append(TrackState(mean=tgt.initial_state + INIT_MEAN_OFFSET,
                                 cov=np.diag(INIT_COV_DIAG)))
        gammas.append(process_noise_cov(grid.interval_length,
                                        tgt.process_noise_intensity))
        chols.append(np.linalg.cholesky(gammas[q])
                     if tgt.process_noise_intensity > 0 else None)

    for k in range(k_n):
        t_k, t_fuse = grid.boundary(k)
        # pre-draw the noise in schedule order, identically for any policy
        proc_draws = [proc_rng.standard_normal(4) for _ in range(q_n)]
        meas_draws = [meas_rng.standard_normal((len(schedule.rows[q][k].times), 2))
                      for q in range(q_n)]
        for q in range(q_n):
            # truth advances with CV motion plus process noise
            noise = np.zeros(4) if chols[q] is None else chols[q] @ proc_draws[q]
            truth[q, k + 1] = F @ truth[q, k] + noise
            predicted = kf_predict(tracks[q], grid.interval_length, gammas[q])
            stack = _stack_interval(schedule.rows[q][k], scales[k][:, q],
                                    truth[q, k], t_k, t_fuse, meas_draws[q])
            try:
                cm = ils_mle(stack, predicted.mean)
            except FusionError as exc:
                raise FusionError(
                    f"fusion failed for target {q} interval {k}: {exc}") from exc
            tracks[q] = kf_update(predicted, cm)
            means[q, k] = tracks[q].mean
            covs[q, k] = tracks[q].cov

    return TrackingResult(truth=truth, means=means, covs=covs)
