"""Kalman filtering over fusion intervals: composite measurements enter as
state-space pseudo-measurements with identity measurement matrix and CRB
covariance."""

from dataclasses import dataclass

import numpy as np

from ._kernels import member_error
from .fusion import (CompositeMeasurement, FusionError, StackedMeasurements,
                     ils_mle, inv_psd, symmetrize)
from .kinematics import measure, process_noise_cov, transition_matrix
from .scenario import MeasurementRows, MeasurementSchedule, Scenario


@dataclass
class TrackState:
    mean: np.ndarray  # (..., 4)
    cov: np.ndarray   # (..., 4, 4) symmetric PSD


# Track initialization: every track starts at its truth perturbed by this
# offset, with this diagonal covariance, which the planning chain also starts
# from
INIT_MEAN_OFFSET = np.array([50.0, 5.0, -50.0, -5.0])
INIT_COV_DIAG = np.array([100.0, 10.0, 100.0, 10.0]) ** 2


def kf_predict(track: TrackState, t0: float, gamma: np.ndarray) -> TrackState:
    """Constant-velocity prediction over t0 seconds with process noise
    gamma, for a track or a batch of tracks."""
    F = transition_matrix(t0)
    mean = (F @ track.mean[..., None])[..., 0]
    cov = F @ track.cov @ F.T + gamma
    return TrackState(mean=mean, cov=symmetrize(cov))


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
    return TrackState(mean=mean, cov=symmetrize(cov))


@dataclass
class TrackingResult:
    """A full K-interval run of T trials under P allocation plans: per
    (trial, target, interval) the truth, which every plan shares, and per
    plan the filtered state."""

    truth: np.ndarray      # (T, Q, K+1, 4) truth at fusion times t_1..t_{K+1}
    means: np.ndarray      # (P, T, Q, K, 4) filtered means at t_2..t_{K+1}
    covs: np.ndarray       # (P, T, Q, K, 4, 4)


def _noise_free(rows: MeasurementRows, state: np.ndarray,
                t_state) -> np.ndarray:
    """Noise-free (range, bearing) (..., R, 2) of R rows: each row's state
    (..., R, 4), known at time t_state (R,), moved at constant velocity to
    the row's time, x + (t - t_state) v, and seen from the row's radar."""
    drift = np.zeros_like(state)
    drift[..., 0::2] = state[..., 1::2]
    return np.stack(measure(state + (rows.times - t_state)[..., None] * drift,
                            rows.radar_xy), axis=-1)


def _stack_interval(rows: MeasurementRows, weight: np.ndarray,
                    clean: np.ndarray, noise_draws: np.ndarray,
                    t_fuse: float) -> StackedMeasurements:
    """Stack one target's measurements in one interval for a batch of G
    members, such as the target under G allocation plans, in T trials; or
    Q' targets' measurements, M rows each, for G members per target.

    rows hold the times, radar_xy and kernel of the block's M schedule
    rows, which every member stacks in their order, or (Q', M) rows, one
    block per target.  weight (G, M), or (G, Q', M), is each row's weight
    under each member, the info_scale of its radar on the target: a row's
    covariance is its kernel over its weight, and a row of zero weight (a
    radar given zero energy) has infinite variance, so Gauss-Newton and fim
    give it an inverse variance of 0.  clean (T, M, 2), or (T, Q', M, 2),
    is each row's noise-free value in each trial.  noise_draws, of the same
    shape, are pre-drawn standard normals, one pair per row and trial,
    which every member reads, so noise streams pair across allocation
    plans; a row of zero weight takes its noise-free value.  The stack's
    values are (G, T, M, 2), its cov_diag (G, 1, M, 2), and its rows (M,)
    shared; with targets, (G, T, Q', M, 2), (G, 1, Q', M, 2) and (Q', M).
    """
    cov = np.divide(rows.kernel, weight[..., None],
                    out=np.zeros(weight.shape + (2,)),
                    where=(weight > 0)[..., None])
    values = clean + np.sqrt(cov)[:, None] * noise_draws
    cov[weight <= 0] = np.inf
    return StackedMeasurements(
        values=values, times=rows.times, radar_xy=rows.radar_xy,
        cov_diag=cov[:, None], t_fuse=t_fuse)


def run_tracking(scenario: Scenario, schedule: MeasurementSchedule,
                 scales, seeds: list) -> TrackingResult:
    """Closed-loop simulate-fuse-filter runs over all fusion intervals, one
    trial per seed of seeds, for a batch of allocation plans, batched over
    the plans, the targets and the trials.

    scales (P, K, N, Q) holds the allocator's info_scale of every interval's
    allocation under each of P plans: the weight of every radar's
    measurements on every target.  The result's means and covs carry the
    plan axis in front.

    Deterministic under fixed seeds: each trial draws its process noise and
    its measurement noise from separate child streams of its seed, in a fixed
    (interval, target) order, and builds its truth and every row's noise-free
    value once, so every plan sees the same truth and the same noise, and a
    member's result does not depend on the other plans, targets and trials
    of the batch.  Each interval predicts every track in one step, then
    fuses and updates its targets' plans: the targets whose every row every
    plan gives positive weight in one call per number of rows, in order of
    their first target, and each other target in a call of its own, on all
    of its rows (a radar given zero energy keeps its rows at infinite
    variance); a plan that gives every row of a target zero weight, as
    planning does, keeps its prediction there.  Raises the
    failure of a fix or a Kalman update as the same exception class,
    naming the plan, the target, the interval and the trial, with the plan
    also kept as the exception's plan attribute: the first failing member
    of the first call that fails.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 4:
        raise ValueError("scales must be (plans, intervals, radars, "
                         f"targets), got shape {scales.shape}")
    grid = scenario.grid
    q_n, k_n, t_n = scenario.n_targets, grid.num_intervals, len(seeds)
    p_n = scales.shape[0]
    F = transition_matrix(grid.interval_length)
    bounds = schedule.bounds
    proc_draws = np.empty((t_n, k_n, q_n, 4))
    meas_draws = np.empty((t_n, bounds[-1], 2))
    for t, seed in enumerate(seeds):
        proc_rng, meas_rng = [np.random.default_rng(c) for c in
                              np.random.SeedSequence(seed).spawn(2)]
        proc_rng.standard_normal(out=proc_draws[t])
        meas_rng.standard_normal(out=meas_draws[t])

    # truth advances with CV motion plus process noise
    intensity = np.array([tgt.process_noise_intensity
                          for tgt in scenario.targets])
    gammas = process_noise_cov(grid.interval_length, intensity)
    noisy = intensity > 0
    chols = np.zeros_like(gammas)
    chols[noisy] = np.linalg.cholesky(gammas[noisy])
    noise = (chols @ proc_draws[..., None])[..., 0]
    noise[:, :, ~noisy] = 0.0
    initial = np.array([tgt.initial_state for tgt in scenario.targets])
    truth = np.zeros((t_n, q_n, k_n + 1, 4))
    truth[:, :, 0] = initial
    for k in range(k_n):
        truth[:, :, k + 1] = ((F @ truth[:, :, k, :, None])[..., 0]
                              + noise[:, k])
    # each row's interval and target, and its noise-free value in every trial
    row_k, row_q = np.divmod(np.repeat(np.arange(k_n * q_n), np.diff(bounds)),
                             q_n)
    clean = _noise_free(schedule.rows, truth[:, row_q, row_k],
                        grid.boundary(row_k)[0])

    means = np.zeros((p_n, t_n, q_n, k_n, 4))
    covs = np.zeros((p_n, t_n, q_n, k_n, 4, 4))
    track = TrackState(
        mean=np.tile(initial + INIT_MEAN_OFFSET, (p_n, t_n, 1, 1)),
        cov=np.tile(np.diag(INIT_COV_DIAG), (p_n, t_n, q_n, 1, 1)))
    for k in range(k_n):
        t_fuse = grid.boundary(k)[1]
        track = kf_predict(track, grid.interval_length, gammas)
        # each target's rows and their weight under every plan; targets
        # whose every row every plan weighs share a call per row count, any
        # other target has a call of its own
        weights, calls = [], {}
        for q in range(q_n):
            lo, hi = bounds[k * q_n + q], bounds[k * q_n + q + 1]
            weights.append(scales[:, k, schedule.rows.radar[lo:hi], q])
            key = hi - lo if np.all(weights[q] > 0) else -1 - q
            calls.setdefault(key, []).append(q)
        for targets in calls.values():
            blocks = bounds[k * q_n + np.array(targets)]
            rows = blocks[:, None] + np.arange(weights[targets[0]].shape[1])
            weight = np.stack([weights[q] for q in targets], axis=1)
            # a plan that gives every row zero weight keeps its prediction
            plans = np.flatnonzero((weight > 0).any(axis=(1, 2)))
            if not plans.size:
                continue
            at = np.ix_(plans, range(t_n), targets)
            prior = TrackState(mean=track.mean[at], cov=track.cov[at])
            stack = _stack_interval(schedule.rows[rows], weight[plans],
                                    clean[:, rows], meas_draws[:, rows],
                                    t_fuse)
            try:
                post = kf_update(prior, ils_mle(stack, prior.mean))
            except (FusionError, np.linalg.LinAlgError) as exc:
                member, trial, target = np.unravel_index(
                    exc.member, (len(plans), t_n, len(targets)))
                plan = int(plans[member])
                failure = type(exc)(
                    f"fusion failed for plan {plan} target "
                    f"{targets[target]} interval {k} trial {trial}: "
                    f"{exc.reason}")
                failure.plan = plan
                raise failure from exc
            track.mean[at] = post.mean
            track.cov[at] = post.cov
        means[:, :, :, k] = track.mean
        covs[:, :, :, k] = track.cov

    return TrackingResult(truth=truth, means=means, covs=covs)
