"""Hot numeric kernels: the Fisher information of stacked (range, bearing)
rows and the Gauss-Newton refinement loop used by every fusion call.

Both are plain numpy and take leading batch axes on the state, on the row
sets (times and radar positions) and on the weights, which broadcast
against the states' batch axes: a batch of states may share one row set or
stack row sets of one length, one per member, and differs in the state, in
the weights and, for Gauss-Newton, in the measured values.  A single state
is simply a call with no batch axis.  One chained-Jacobian pass covers all
the row sets of a call, and the contiguous (..., 2M, 4) view J of its
output gives each normal matrix J^T W J, and Gauss-Newton's J^T W r, as one
stacked BLAS matrix product.  fim_accumulate returns one 4x4 per segment
of rows: one per radar for the planning kernels, a single segment for a
fusion fix.  Gauss-Newton solves with np.linalg.solve and checks the rank of
its first normal matrix, which is the Fisher information at the initial
state.

Every matrix-vector product is written (M @ v[..., None])[..., 0], which
numpy computes per member exactly as it computes M @ v, so a member's result
does not depend on the batch it is in.
"""

import numpy as np

# The kernels never use numba; perfbench/run.py reports this flag on every run.
USING_NUMBA = False


def _chain_jacobian(state_fuse, dt_back, radar_xy):
    """(..., M, 2, 4) Jacobians of the (range, bearing) measurements taken
    dt_back (..., M) seconds before the fusion time by radars at radar_xy
    (..., M, 2), with respect to the fusion-time states (..., 4), plus the
    (..., M) ranges and four-quadrant bearings.  The batch axes broadcast.

    The state is propagated backward by dt_back before measuring, so the
    position partials pick up a -dt_back coupling into the velocity columns.
    """
    state = state_fuse[..., None, :]
    rel = state[..., 0::2] - dt_back[..., None] * state[..., 1::2] - radar_xy
    dx, dy = rel[..., 0], rel[..., 1]
    r2 = dx * dx + dy * dy
    r = np.sqrt(r2)
    H = np.empty(rel.shape[:-1] + (2, 4))
    np.divide(rel, r[..., None], out=H[..., 0, 0::2])      # dx/r, dy/r
    np.divide(rel[..., ::-1], r2[..., None], out=H[..., 1, 0::2])
    H[..., 1, 0] *= -1.0                                   # -dy/r2, dx/r2
    np.multiply(H[..., 0::2], -dt_back[..., None, None], out=H[..., 1::2])
    return H, r, np.arctan2(dy, dx)


def _weighted_rows(state_fuse, dt_back, radar_xy, w):
    """The chained Jacobian pass as Gauss-Newton and the information sums
    read it: J (..., 2M, 4), the contiguous view of its rows, W J^T
    (..., 4, 2M) with w (..., 2M) the inverse variances in J's row order,
    and the ranges and bearings.

    W J^T is the transpose of the contiguous product w J, so its memory
    layout, and the BLAS call that multiplies it, do not depend on whether
    w carries batch axes."""
    H, r, th = _chain_jacobian(state_fuse, dt_back, radar_xy)
    J = H.reshape(H.shape[:-3] + (-1, 4))
    return J, np.swapaxes(w[..., None] * J, -1, -2), r, th


def fim_accumulate(state_fuse, t_fuse, times, radar_xy, winv, start):
    """(..., S, 4, 4): for each state (..., 4) and each segment of rows
    start[s]:start[s+1], the sum of H^T diag(winv_m) H over its
    measurements; an empty segment gives zero.

    times: (M,) measurement times; radar_xy: (M, 2) radar positions;
    winv: (M, 2) inverse variances of (range, bearing); start: (S+1,)
    nondecreasing row offsets from 0 to M.  These and t_fuse may carry batch
    axes, which broadcast against the states': a row set of length M per
    member.  H is the chained Jacobian with respect to the fusion-time state.
    """
    J, WJt, _, _ = _weighted_rows(state_fuse, t_fuse - times, radar_xy,
                                  winv.reshape(winv.shape[:-2] + (-1,)))
    edges = 2 * np.asarray(start)
    row = np.arange(J.shape[-2])
    member = (edges[..., :-1, None] <= row) & (row < edges[..., 1:, None])
    return (member[..., None, :] * WJt[..., None, :, :]) @ J[..., None, :, :]


def singular_members(mats):
    """Mask (...,) of the matrices of the stack (..., k, k) whose LU
    factorization meets an exact zero pivot, which is when np.linalg.inv
    and np.linalg.solve raise on them.  One inverse per member: the path
    after a stacked call raised, to find which members did."""
    flat = np.reshape(mats, (-1,) + np.shape(mats)[-2:])
    mask = np.zeros(len(flat), dtype=bool)
    for i, mat in enumerate(flat):
        try:
            np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            mask[i] = True
    return mask.reshape(np.shape(mats)[:-2])


def first_member(mask):
    """Flat index of the first True member of a batch mask, None for the
    0-d mask of a call without batch axes."""
    return int(np.flatnonzero(mask)[0]) if np.ndim(mask) else None


def member_error(cls, message: str, member):
    """cls(message) about batch member `member` (see first_member): named
    in the message, kept as the exception's member and message as reason."""
    exc = cls(message if member is None
              else f"{message} in batch member {member}")
    exc.member, exc.reason = member, message
    return exc


def gauss_newton(y, times, radar_xy, winv, t_fuse, s0, tol, max_iter):
    """Weighted Gauss-Newton on stacked (range, bearing) measurements, for
    a batch of initial states s0 (..., 4) with their measured values
    y (..., M, 2), each on its row set of M rows: times (..., M), radar_xy
    (..., M, 2) and inverse variances winv (..., M, 2), whose batch axes
    broadcast against s0's, as does t_fuse's.

    Returns (states, steps, step_norms, status): the (..., 4) states, the
    Python int number of steps taken summed over the batch, each member's
    last step norm and its status.  A member's status is 1 when a step falls
    below tol, 0 when max_iter is reached first, and -1 (with no step taken)
    when its first normal matrix, the Fisher information at its s0, has rank
    below 4: an eigenvalue at most 1e-10 * max(1, trace).  A member stops at
    the step where it would stop alone.  Bearing residuals are wrapped to
    (-pi, pi] before weighting.  A singular later normal matrix raises
    np.linalg.LinAlgError naming the first such member (see member_error).
    """
    batch = np.shape(s0)[:-1]
    m = np.shape(times)[-1]
    s = np.array(s0, dtype=float).reshape(-1, 4)
    n = s.shape[0]
    # every member's values and rows, flat over the batch
    y = np.asarray(y, dtype=float).reshape(-1, m, 2)
    dt_back = np.broadcast_to(t_fuse - times, batch + (m,)).reshape(n, m)
    xy = np.broadcast_to(radar_xy, batch + (m, 2)).reshape(n, m, 2)
    w = np.broadcast_to(winv, batch + (m, 2)).reshape(n, 2 * m)
    iters = np.zeros(n, dtype=int)
    step_norm = np.full(n, np.inf)
    status = np.zeros(n, dtype=int)
    live = np.arange(n)  # the members still moving
    for it in range(max_iter):
        J, WJt, r, th = _weighted_rows(s[live], dt_back[live], xy[live],
                                       w[live])
        res = np.empty((live.size, 2 * m))  # in the row order of J
        np.subtract(y[live, :, 0], r, out=res[:, 0::2])
        bearing_res = res[:, 1::2]
        np.subtract(y[live, :, 1], th, out=bearing_res)
        bearing_res += np.pi
        bearing_res %= 2.0 * np.pi
        bearing_res -= np.pi
        normal = WJt @ J
        if it == 0:
            deficient = (np.linalg.eigvalsh(normal)[:, 0] <= 1e-10
                         * np.maximum(1.0, np.trace(normal, axis1=1, axis2=2)))
            status[live[deficient]] = -1
            keep = ~deficient
            live, normal, WJt, res = (live[keep], normal[keep], WJt[keep],
                                      res[keep])
            if not live.size:
                break
        try:
            step = np.linalg.solve(normal, WJt @ res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            bad = live[first_member(singular_members(normal))]
            raise member_error(np.linalg.LinAlgError, "Singular matrix",
                               int(bad) if batch else None) from None
        s[live] += step
        iters[live] += 1
        norm = np.sqrt((step[:, None, :] @ step[..., None])[:, 0, 0])
        step_norm[live] = norm
        done = norm < tol
        status[live[done]] = 1
        live = live[~done]
        if not live.size:
            break
    return (s.reshape(batch + (4,)), int(iters.sum()),
            step_norm.reshape(batch), status.reshape(batch))
