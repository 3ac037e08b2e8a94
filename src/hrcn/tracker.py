"""Kalman filtering over fusion intervals: composite measurements enter as
state-space pseudo-measurements with identity measurement matrix and CRB
covariance."""

from dataclasses import dataclass

import numpy as np

from ._kernels import member_error
from .fusion import (CompositeMeasurement, FusionError, StackedMeasurements,
                     ils_mle, inv_psd)
from .kinematics import measure, process_noise_cov, transition_matrix
from .scenario import IntervalRows, MeasurementSchedule, Scenario


@dataclass
class TrackState:
    mean: np.ndarray  # (..., 4)
    cov: np.ndarray   # (..., 4, 4) symmetric PSD


# Track initialization: every track starts at its truth perturbed by this
# offset, with this diagonal covariance, which the planning chain also starts
# from
INIT_MEAN_OFFSET = np.array([50.0, 5.0, -50.0, -5.0])
INIT_COV_DIAG = np.array([100.0, 10.0, 100.0, 10.0]) ** 2


def _sym(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def kf_predict(track: TrackState, t0: float, gamma: np.ndarray) -> TrackState:
    """Constant-velocity prediction over t0 seconds with process noise
    gamma, for a track or a batch of tracks."""
    F = transition_matrix(t0)
    mean = (F @ track.mean[..., None])[..., 0]
    cov = F @ track.cov @ F.T + gamma
    return TrackState(mean=mean, cov=_sym(cov))


def kf_update(predicted: TrackState, cm: CompositeMeasurement) -> TrackState:
    """Identity-H Kalman update in Joseph form, member by member of a
    batch."""
    P, R = predicted.cov, cm.covariance
    S = P + R
    try:
        K = P @ inv_psd(S, 0.0)[0]
    except np.linalg.LinAlgError as exc:
        raise member_error(
            np.linalg.LinAlgError, "singular innovation covariance (prior "
            "and measurement both degenerate)", exc.member) from exc
    mean = predicted.mean + (K @ (cm.estimate - predicted.mean)[..., None])[..., 0]
    IK = np.eye(4) - K
    cov = (IK @ P @ np.swapaxes(IK, -1, -2)
           + K @ R @ np.swapaxes(K, -1, -2))
    return TrackState(mean=mean, cov=_sym(cov))


@dataclass
class TrackingResult:
    """A full K-interval run of T trials: per (trial, target, interval)
    truth and filtered state."""

    truth: np.ndarray      # (T, Q, K+1, 4) truth at fusion times t_1..t_{K+1}
    means: np.ndarray      # (T, Q, K, 4) filtered means at t_2..t_{K+1}
    covs: np.ndarray       # (T, Q, K, 4, 4)


def _stack_interval(rows: IntervalRows, scale: np.ndarray,
                    truth_k: np.ndarray, t_k: float, t_fuse: float,
                    noise_draws: np.ndarray) -> StackedMeasurements:
    """Simulate and stack one target's measurements in one interval, for
    one interval-start truth truth_k (4,) or a batch of them (..., 4).

    rows are the interval's schedule rows and scale (N,) the info_scale of
    every radar on this target: a row's covariance is its kernel over its
    radar's scale.  noise_draws (..., rows, 2) are pre-drawn standard
    normals, one pair per schedule row, so noise streams pair across
    allocation policies; a radar with zero energy consumes its draws and
    stacks no rows.
    """
    row_scale = scale[rows.radar]
    keep = row_scale > 0
    times = rows.times[keep]
    radar_xy = rows.radar_xy[keep]
    cov = rows.kernel[keep] / row_scale[keep, None]
    # constant-velocity motion from the interval start: x_k + (t - t_k) v_k
    truth_k = truth_k[..., None, :]
    drift = np.zeros_like(truth_k)
    drift[..., 0::2] = truth_k[..., 1::2]
    r, th = measure(truth_k + (times - t_k)[:, None] * drift, radar_xy)
    return StackedMeasurements(
        values=(np.stack([r, th], axis=-1)
                + np.sqrt(cov) * noise_draws[..., keep, :]),
        times=times, radar_xy=radar_xy, cov_diag=cov,
        radar_ids=rows.radar[keep], t_fuse=t_fuse)


def run_tracking(scenario: Scenario, schedule: MeasurementSchedule,
                 scales: list[np.ndarray], seeds: list) -> TrackingResult:
    """Closed-loop simulate-fuse-filter runs over all fusion intervals, one
    trial per seed of seeds, batched over the trials.

    scales[k] (N, Q) is the allocator's info_scale of interval k's
    allocation: the weight of every radar's measurements on every target.

    Deterministic under fixed seeds: each trial draws its process noise and
    its measurement noise from separate child streams of its seed, in a fixed
    (interval, target) order, so the same seed pairs the noise across
    different allocation sequences, and a trial's result does not depend on
    the other trials of the batch.  Raises the failure of a fix or a Kalman
    update as the same exception class, naming the target, the interval and
    the trial.
    """
    grid = scenario.grid
    q_n, k_n, t_n = scenario.n_targets, grid.num_intervals, len(seeds)
    F = transition_matrix(grid.interval_length)
    # row offsets of each (interval, target) block in the measurement draws
    offsets = np.cumsum([0] + [len(schedule.rows[q][k].times)
                               for k in range(k_n) for q in range(q_n)])
    proc_draws = np.empty((t_n, k_n, q_n, 4))
    meas_draws = np.empty((t_n, offsets[-1], 2))
    for t, seed in enumerate(seeds):
        proc_rng, meas_rng = [np.random.default_rng(c) for c in
                              np.random.SeedSequence(seed).spawn(2)]
        proc_rng.standard_normal(out=proc_draws[t])
        meas_rng.standard_normal(out=meas_draws[t])

    truth = np.zeros((t_n, q_n, k_n + 1, 4))
    means = np.zeros((t_n, q_n, k_n, 4))
    covs = np.zeros((t_n, q_n, k_n, 4, 4))

    tracks, gammas, chols = [], [], []
    for q, tgt in enumerate(scenario.targets):
        truth[:, q, 0] = tgt.initial_state
        tracks.append(TrackState(
            mean=np.tile(tgt.initial_state + INIT_MEAN_OFFSET, (t_n, 1)),
            cov=np.tile(np.diag(INIT_COV_DIAG), (t_n, 1, 1))))
        gammas.append(process_noise_cov(grid.interval_length,
                                        tgt.process_noise_intensity))
        chols.append(np.linalg.cholesky(gammas[q])
                     if tgt.process_noise_intensity > 0 else None)

    for k in range(k_n):
        t_k, t_fuse = grid.boundary(k)
        for q in range(q_n):
            # truth advances with CV motion plus process noise
            noise = (np.zeros(4) if chols[q] is None
                     else (chols[q] @ proc_draws[:, k, q, :, None])[..., 0])
            truth[:, q, k + 1] = (F @ truth[:, q, k, :, None])[..., 0] + noise
            predicted = kf_predict(tracks[q], grid.interval_length, gammas[q])
            block = k * q_n + q
            stack = _stack_interval(
                schedule.rows[q][k], scales[k][:, q], truth[:, q, k], t_k,
                t_fuse, meas_draws[:, offsets[block]:offsets[block + 1]])
            try:
                tracks[q] = kf_update(predicted, ils_mle(stack, predicted.mean))
            except (FusionError, np.linalg.LinAlgError) as exc:
                raise type(exc)(
                    f"fusion failed for target {q} interval {k} trial "
                    f"{exc.member}: {exc}") from exc
            means[:, q, k] = tracks[q].mean
            covs[:, q, k] = tracks[q].cov

    return TrackingResult(truth=truth, means=means, covs=covs)
