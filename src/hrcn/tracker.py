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
    """A full K-interval run of T trials under P allocation plans: per
    (trial, target, interval) the truth, which every plan shares, and per
    plan the filtered state.  means and covs have no plan axis when the run
    was given a single plan without one."""

    truth: np.ndarray      # (T, Q, K+1, 4) truth at fusion times t_1..t_{K+1}
    means: np.ndarray      # ([P,] T, Q, K, 4) filtered means at t_2..t_{K+1}
    covs: np.ndarray       # ([P,] T, Q, K, 4, 4)


def _stack_interval(rows: IntervalRows, scale: np.ndarray,
                    truth_k: np.ndarray, t_k: float, t_fuse: float,
                    noise_draws: np.ndarray) -> StackedMeasurements:
    """Simulate and stack one target's measurements in one interval, for
    one interval-start truth truth_k (4,) or a batch of them (..., 4), under
    one allocation plan or a batch of plans.

    rows are the interval's schedule rows and scale (..., N) the info_scale
    of every radar on this target under each plan: a row's covariance is its
    kernel over its radar's scale.  Every plan must give the same radars
    zero energy; the stack's batch axes are the plans' followed by the
    truths'.  noise_draws (..., rows, 2) are pre-drawn standard normals, one
    pair per schedule row and truth, so noise streams pair across allocation
    plans; a radar with zero energy consumes its draws and stacks no rows.
    """
    row_scale = scale[..., rows.radar]
    keep = row_scale[(0,) * (row_scale.ndim - 1)] > 0
    times = rows.times[keep]
    radar_xy = rows.radar_xy[keep]
    cov = rows.kernel[keep] / row_scale[..., keep, None]
    cov = cov.reshape(cov.shape[:-2] + (1,) * (truth_k.ndim - 1)
                      + cov.shape[-2:])
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


def _kept_row_groups(keep: np.ndarray) -> list[np.ndarray]:
    """The plans, as index arrays, that keep the same rows: keep (P, M) is
    each plan's mask of the rows it stacks.  Groups come in the order of
    their first plan."""
    groups: dict = {}
    for p, mask in enumerate(keep):
        groups.setdefault(mask.tobytes(), []).append(p)
    return [np.array(plans) for plans in groups.values()]


def run_tracking(scenario: Scenario, schedule: MeasurementSchedule,
                 scales, seeds: list) -> TrackingResult:
    """Closed-loop simulate-fuse-filter runs over all fusion intervals, one
    trial per seed of seeds, for one allocation plan or a batch of plans,
    batched over the plans and the trials.

    scales (K, N, Q), or (P, K, N, Q) for P plans, holds the allocator's
    info_scale of every interval's allocation under each plan: the weight of
    every radar's measurements on every target.  The result's means and
    covs carry the plan axis in front when scales does.

    Deterministic under fixed seeds: each trial draws its process noise and
    its measurement noise from separate child streams of its seed, in a fixed
    (interval, target) order, so every plan of the batch sees the same truth
    and the same noise, and a member's result does not depend on the other
    plans and trials of the batch.  In each (interval, target), the plans
    that keep the same rows (give the same radars zero energy) are fused in
    one call, the rest in a call of their own.  Raises the failure of a fix
    or a Kalman update as the same exception class, naming the target, the
    interval and the trial, and the plan, also kept as the exception's plan
    attribute, when scales has a plan axis.
    """
    scales = np.asarray(scales, dtype=float)
    plan_axis = scales.ndim == 4
    scales = scales.reshape((-1,) + scales.shape[-3:])
    grid = scenario.grid
    q_n, k_n, t_n = scenario.n_targets, grid.num_intervals, len(seeds)
    p_n = scales.shape[0]
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
    means = np.zeros((p_n, t_n, q_n, k_n, 4))
    covs = np.zeros((p_n, t_n, q_n, k_n, 4, 4))

    tracks, gammas, chols = [], [], []
    for q, tgt in enumerate(scenario.targets):
        truth[:, q, 0] = tgt.initial_state
        tracks.append(TrackState(
            mean=np.tile(tgt.initial_state + INIT_MEAN_OFFSET, (p_n, t_n, 1)),
            cov=np.tile(np.diag(INIT_COV_DIAG), (p_n, t_n, 1, 1))))
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
            # every plan predicts; each group of plans then updates its part
            track = kf_predict(tracks[q], grid.interval_length, gammas[q])
            rows = schedule.rows[q][k]
            block = k * q_n + q
            draws = meas_draws[:, offsets[block]:offsets[block + 1]]
            for plans in _kept_row_groups(scales[:, k, rows.radar, q] > 0):
                prior = TrackState(mean=track.mean[plans],
                                   cov=track.cov[plans])
                stack = _stack_interval(rows, scales[plans, k, :, q],
                                        truth[:, q, k], t_k, t_fuse, draws)
                try:
                    post = kf_update(prior, ils_mle(stack, prior.mean))
                except (FusionError, np.linalg.LinAlgError) as exc:
                    plan, trial = divmod(exc.member, t_n)
                    plan = int(plans[plan]) if plan_axis else None
                    failure = type(exc)(
                        "fusion failed for "
                        + ("" if plan is None else f"plan {plan} ")
                        + f"target {q} interval {k} trial {trial}: "
                        + exc.reason)
                    failure.plan = plan
                    raise failure from exc
                track.mean[plans] = post.mean
                track.cov[plans] = post.cov
            tracks[q] = track
            means[:, :, q, k] = track.mean
            covs[:, :, q, k] = track.cov

    if not plan_axis:
        means, covs = means[0], covs[0]
    return TrackingResult(truth=truth, means=means, covs=covs)
