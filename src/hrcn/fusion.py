"""Composite measurement construction: iterative least-squares MLE over the
stacked interval measurements, its Fisher information, and the one-step
predicted information that seeds the Bayesian recursion."""

from dataclasses import dataclass

import numpy as np

from . import _kernels


class FusionError(RuntimeError):
    """A fix that cannot be fused; raised by ils_mle with the failing batch
    member (see _kernels.member_error)."""


class RankDeficiencyError(FusionError):
    """Stacked geometry does not determine the 4-state (normal matrix rank < 4)."""


class DivergenceError(FusionError):
    """Gauss-Newton hit the iteration cap without meeting the step tolerance."""


@dataclass
class StackedMeasurements:
    """All (range, bearing) measurements for one target in one interval.

    Rows are ordered radar by radar, then by measurement time, matching the
    stacked-likelihood convention.  values may carry leading batch axes: a
    batch of fixes of M rows each, such as one per Monte-Carlo trial.  The
    rows (times, radar_xy) and cov_diag may carry batch axes too, which
    broadcast against those of values: one row set per member, or one
    weighting per allocation plan of a row set they share.  A row of
    infinite cov_diag carries no information: fusion weighs it by 0 and
    does not count it as an equation.
    """

    values: np.ndarray     # (..., M, 2) range, bearing
    times: np.ndarray      # (..., M)
    radar_xy: np.ndarray   # (..., M, 2)
    cov_diag: np.ndarray   # (..., M, 2) diag of each measurement covariance
    t_fuse: float = 0.0

    def __len__(self) -> int:
        return self.times.shape[-1]


@dataclass
class CompositeMeasurement:
    """The fused fixes of one (batched) ils_mle call."""

    estimate: np.ndarray    # (..., 4) fused state at the fusion time
    covariance: np.ndarray  # (..., 4, 4) CRB of the estimate
    iterations: int         # Gauss-Newton steps, summed over the batch
    step_norm: np.ndarray   # (...,) each member's last step norm
    jittered: int = 0       # members whose information took the jitter


def fim(stack: StackedMeasurements, eval_state: np.ndarray) -> np.ndarray:
    """(..., 4, 4) Fisher information of the stacked measurements at each
    state eval_state (..., 4): sum of H^T Sigma^{-1} H with H chained
    through the backward CV map."""
    return _kernels.fim_accumulate(np.asarray(eval_state, dtype=float),
                                   stack.t_fuse, stack.times, stack.radar_xy,
                                   1.0 / stack.cov_diag,
                                   [0, len(stack)])[..., 0, :, :]


# Ridge that inv_psd adds to a singular matrix before it retries the inverse
JITTER = 1e-9
# ils_mle's Gauss-Newton converges once a step is shorter than GN_TOL, and
# diverges after GN_MAX_ITER steps
GN_TOL = 1e-8
GN_MAX_ITER = 50


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each matrix of the stack mat (..., n, n)."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def inv_psd(mat: np.ndarray, jitter: float = JITTER) -> tuple[np.ndarray, int]:
    """Inverse of each matrix of the stack mat (..., n, n), a singular
    member retried as inv(member + jitter I); returns the inverses and the
    number of members that took the jitter.  With jitter <= 0, as the
    Kalman update asks, a singular member raises LinAlgError naming it
    (see _kernels.member_error) instead.

    np.linalg.inv inverts every member as it would alone, so a member's
    inverse does not depend on the stack it is in.
    """
    try:
        return np.linalg.inv(mat), 0
    except np.linalg.LinAlgError:
        singular = _kernels.singular_members(mat)
    if jitter <= 0:
        raise _kernels.member_error(np.linalg.LinAlgError, "Singular matrix",
                                    _kernels.first_member(singular))
    ridged = np.where(singular[..., None, None],
                      mat + jitter * np.eye(mat.shape[-1]), mat)
    return inv_psd(ridged, 0.0)[0], int(singular.sum())


def ils_mle(stack: StackedMeasurements,
            init: np.ndarray) -> CompositeMeasurement:
    """Gauss-Newton on the stacked weighted least squares, to a step below
    GN_TOL, for each fix of the stack from its initial state init (..., 4).

    Bearing residuals are wrapped to (-pi, pi] before weighting.  Raises
    RankDeficiencyError on unobservable geometry and DivergenceError after
    GN_MAX_ITER steps, naming the first failing member of a batch.  A
    member with fewer than 2 rows of finite variance fails first; the rank
    test is then Gauss-Newton's, on its first normal matrix: the Fisher
    information at init.  The values must hold one fix per initial state.
    """
    init = np.asarray(init, dtype=float)
    if not np.all(np.isfinite(init)):
        raise ValueError("initial state must be finite")
    if stack.values.shape[:-2] != init.shape[:-1]:
        raise ValueError(f"values for fixes {stack.values.shape[:-2]} do "
                         f"not match initial states {init.shape[:-1]}")
    # a row of infinite variance carries no information, so it is no equation
    finite = np.broadcast_to(np.isfinite(stack.cov_diag).all(axis=-1).sum(
        axis=-1), init.shape[:-1])
    if np.any(finite < 2):
        member = _kernels.first_member(finite < 2)
        raise _kernels.member_error(
            RankDeficiencyError, f"{2 * finite.flat[member or 0]} equations "
            "cannot determine 4 state components", member)
    s, iters, step_norm, status = _kernels.gauss_newton(
        stack.values, stack.times, stack.radar_xy, 1.0 / stack.cov_diag,
        stack.t_fuse, init, GN_TOL, GN_MAX_ITER)
    if np.any(status < 0):
        raise _kernels.member_error(
            RankDeficiencyError, "stacked Jacobians are jointly rank-deficient",
            _kernels.first_member(status < 0))
    if np.any(status == 0):
        member = _kernels.first_member(status == 0)
        raise _kernels.member_error(
            DivergenceError, f"no convergence in {GN_MAX_ITER} iterations "
            f"(last step {step_norm.flat[member or 0]:.3e})", member)
    info = fim(stack, s)
    cov, jittered = inv_psd(info)
    return CompositeMeasurement(estimate=s, covariance=symmetrize(cov),
                                iterations=iters, step_norm=step_norm,
                                jittered=jittered)


def prior_information(prev_info: np.ndarray, F: np.ndarray,
                      Gamma: np.ndarray) -> np.ndarray:
    """One-step predicted information [Gamma + F B^{-1} F^T]^{-1} of each
    information B of the stack prev_info (..., 4, 4), with process noise
    Gamma (..., 4, 4); each inverse jittered when singular."""
    prev_inv, _ = inv_psd(prev_info)
    pred_cov = Gamma + F @ prev_inv @ F.T
    return symmetrize(inv_psd(pred_cov)[0])
