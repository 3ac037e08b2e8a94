"""Hot numeric kernels: the Fisher information of stacked (range, bearing)
rows and the Gauss-Newton refinement loop used by every fusion call.

Both are plain numpy.  One chained-Jacobian pass covers a whole row set, and
the contiguous (2M, 4) view J of its output gives each normal matrix J^T W J,
and Gauss-Newton's J^T W r, as one BLAS matrix product.  fim_accumulate
returns one 4x4 per segment of rows: one per radar for the planning kernels,
a single segment for a fusion fix.  Gauss-Newton solves with LAPACK dgesv
and checks the rank of its first normal matrix, which is the Fisher
information at the initial state.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgesv

# The kernels never use numba; perfbench/run.py reports this flag on every run.
USING_NUMBA = False


def _chain_jacobian(state_fuse, dt_back, radar_xy):
    """(M, 2, 4) Jacobians of the (range, bearing) measurements taken
    dt_back (M,) seconds before the fusion time, with respect to the
    fusion-time state, plus the (M,) ranges and four-quadrant bearings.

    The state is propagated backward by dt_back before measuring, so the
    position partials pick up a -dt_back coupling into the velocity columns.
    """
    rel = state_fuse[0::2] - dt_back[:, None] * state_fuse[1::2] - radar_xy
    dx, dy = rel[:, 0], rel[:, 1]
    r2 = dx * dx + dy * dy
    r = np.sqrt(r2)
    H = np.empty((rel.shape[0], 2, 4))
    np.divide(rel, r[:, None], out=H[:, 0, 0::2])          # dx/r, dy/r
    np.divide(rel[:, ::-1], r2[:, None], out=H[:, 1, 0::2])
    H[:, 1, 0] *= -1.0                                     # -dy/r2, dx/r2
    np.multiply(H[:, :, 0::2], -dt_back[:, None, None], out=H[:, :, 1::2])
    return H, r, np.arctan2(dy, dx)


def fim_accumulate(state_fuse, t_fuse, times, radar_xy, winv, start):
    """(S, 4, 4): for each segment of rows start[s]:start[s+1], the sum of
    H^T diag(winv_m) H over its measurements; an empty segment gives zero.

    times: (M,) measurement times; radar_xy: (M, 2) radar positions;
    winv: (M, 2) inverse variances of (range, bearing); start: (S+1,)
    nondecreasing row offsets from 0 to M.  H is the chained Jacobian with
    respect to the fusion-time state.
    """
    H, _, _ = _chain_jacobian(state_fuse, t_fuse - times, radar_xy)
    J = H.reshape(-1, 4)
    edges = 2 * np.asarray(start)
    row = np.arange(J.shape[0])
    member = (edges[:-1, None] <= row) & (row < edges[1:, None])  # (S, 2M)
    return (member[:, None, :] * (winv.reshape(-1) * J.T)) @ J


def gauss_newton(y, times, radar_xy, winv, t_fuse, s0, tol, max_iter):
    """Weighted Gauss-Newton on stacked (range, bearing) measurements.

    Returns (state, iterations, last_step_norm, status).  status is 1 when a
    step falls below tol, 0 when max_iter is reached first, and -1 (with no
    step taken) when the first normal matrix, the Fisher information at s0,
    has rank below 4: an eigenvalue at most 1e-10 * max(1, trace).  Bearing
    residuals are wrapped to (-pi, pi] before weighting.  A singular later
    normal matrix raises np.linalg.LinAlgError.
    """
    dt_back = t_fuse - times
    w = winv.reshape(-1)
    res = np.empty(2 * y.shape[0])  # in the row order of J
    range_res, bearing_res = res[0::2], res[1::2]
    s = np.array(s0, dtype=float)
    step_norm = np.inf
    for it in range(max_iter):
        H, r, th = _chain_jacobian(s, dt_back, radar_xy)
        np.subtract(y[:, 0], r, out=range_res)
        np.subtract(y[:, 1], th, out=bearing_res)
        bearing_res += math.pi
        bearing_res %= 2.0 * math.pi
        bearing_res -= math.pi
        J = H.reshape(-1, 4)
        WJt = w * J.T
        normal = WJt @ J
        if it == 0 and (np.linalg.eigvalsh(normal)[0]
                        <= 1e-10 * max(1.0, normal.trace())):
            return s, 0, step_norm, -1
        _, _, step, info = dgesv(normal, WJt @ res)
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        s += step
        step_norm = math.sqrt(float(step @ step))
        if step_norm < tol:
            return s, it + 1, step_norm, 1
    return s, max_iter, step_norm, 0
