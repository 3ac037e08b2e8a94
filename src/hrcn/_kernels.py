"""Hot numeric kernels: per-measurement information accumulation and the
Gauss-Newton refinement loop used by every fusion call.

Both are plain numpy, vectorized over the M stacked (range, bearing) rows
through one chained-Jacobian helper.
"""

import math

import numpy as np

# The kernels never use numba; perfbench/run.py reports this flag on every run.
USING_NUMBA = False


def _chain_jacobian(state_fuse, dt_back, radar_xy):
    """(M, 2, 4) Jacobians of the (range, bearing) measurements taken
    dt_back (M,) seconds before the fusion time, with respect to the
    fusion-time state, plus the (M,) ranges and four-quadrant bearings.

    The state is propagated backward by dt_back before measuring, so the
    position partials pick up a -dt_back coupling into the velocity columns.
    """
    dx = state_fuse[0] - dt_back * state_fuse[1] - radar_xy[:, 0]
    dy = state_fuse[2] - dt_back * state_fuse[3] - radar_xy[:, 1]
    r2 = dx * dx + dy * dy
    r = np.sqrt(r2)
    H = np.empty((dx.shape[0], 2, 4))
    H[:, 0, 0] = dx / r
    H[:, 0, 2] = dy / r
    H[:, 1, 0] = -dy / r2
    H[:, 1, 2] = dx / r2
    H[:, :, 1] = -dt_back[:, None] * H[:, :, 0]
    H[:, :, 3] = -dt_back[:, None] * H[:, :, 2]
    return H, r, np.arctan2(dy, dx)


def fim_accumulate(state_fuse, t_fuse, times, radar_xy, winv):
    """Sum of H^T diag(winv_m) H over measurements.

    times: (M,) measurement times; radar_xy: (M, 2) radar positions;
    winv: (M, 2) inverse variances of (range, bearing).  H is the chained
    Jacobian with respect to the fusion-time state.
    """
    H, _, _ = _chain_jacobian(state_fuse, t_fuse - times, radar_xy)
    return np.einsum("mk,mka,mkb->ab", winv, H, H)


def gauss_newton(y, times, radar_xy, winv, t_fuse, s0, tol, max_iter):
    """Weighted Gauss-Newton on stacked (range, bearing) measurements.

    Returns (state, iterations, last_step_norm, converged_flag).  Bearing
    residuals are wrapped to (-pi, pi] before weighting.
    """
    dt_back = t_fuse - times
    s = np.array(s0, dtype=float)
    step_norm = np.inf
    for it in range(max_iter):
        H, r, th = _chain_jacobian(s, dt_back, radar_xy)
        res = y - np.stack([r, th], axis=1)
        res[:, 1] = (res[:, 1] + math.pi) % (2.0 * math.pi) - math.pi
        WH = winv[:, :, None] * H
        step = np.linalg.solve(np.einsum("mka,mkb->ab", WH, H),
                               np.einsum("mka,mk->a", WH, res))
        s = s + step
        step_norm = math.sqrt(float(step @ step))
        if step_norm < tol:
            return s, it + 1, step_norm, 1
    return s, max_iter, step_norm, 0
