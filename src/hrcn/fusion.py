"""Composite measurement construction: iterative least-squares MLE over the
stacked interval measurements, its Fisher information, and the one-step
predicted information that seeds the Bayesian recursion."""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg.lapack import dgesv

from . import _kernels


class FusionError(RuntimeError):
    pass


class RankDeficiencyError(FusionError):
    """Stacked geometry does not determine the 4-state (normal matrix rank < 4)."""


class DivergenceError(FusionError):
    """Gauss-Newton hit the iteration cap without meeting the step tolerance."""


@dataclass
class StackedMeasurements:
    """All (range, bearing) measurements for one target in one interval.

    Rows are ordered radar by radar, then by measurement time, matching the
    stacked-likelihood convention.
    """

    values: np.ndarray     # (M, 2) range, bearing
    times: np.ndarray      # (M,)
    radar_xy: np.ndarray   # (M, 2)
    cov_diag: np.ndarray   # (M, 2) diag of each measurement covariance
    radar_ids: np.ndarray  # (M,) int
    t_fuse: float = 0.0

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class CompositeMeasurement:
    estimate: np.ndarray    # (4,) fused state at the fusion time
    covariance: np.ndarray  # (4, 4) CRB of the estimate
    iterations: int
    step_norm: float
    jittered: bool = False


def fim(stack: StackedMeasurements, eval_state: np.ndarray) -> np.ndarray:
    """Fisher information of the stacked measurements at eval_state:
    sum of H^T Sigma^{-1} H with H chained through the backward CV map."""
    return _kernels.fim_accumulate(np.asarray(eval_state, dtype=float),
                                   stack.t_fuse, stack.times, stack.radar_xy,
                                   1.0 / stack.cov_diag, [0, len(stack)])[0]


@cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, shared by every inverse of that order."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


# Ridge that inv_psd adds to a singular matrix before it retries the inverse
JITTER = 1e-9
# ils_mle's Gauss-Newton converges once a step is shorter than GN_TOL, and
# diverges after GN_MAX_ITER steps
GN_TOL = 1e-8
GN_MAX_ITER = 50


def inv_psd(mat: np.ndarray, jitter: float = JITTER
            ) -> tuple[np.ndarray, bool]:
    """Inverse of mat, retried as inv(mat + jitter I) when mat is singular
    (raises LinAlgError when jitter <= 0, as the Kalman update asks).  The
    flag says whether the jitter was used.

    LAPACK dgesv solves mat X = I, the call np.linalg.inv makes, so the
    result is bitwise np.linalg.inv's without its wrapper's cost; dgesv
    copies the identity before writing, so one read-only copy serves all.
    """
    eye = _identity(mat.shape[0])
    _, _, inv, info = dgesv(mat, eye)
    jittered = info != 0 and jitter > 0
    if jittered:
        _, _, inv, info = dgesv(mat + jitter * eye, eye)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return inv, jittered


def ils_mle(stack: StackedMeasurements,
            init: np.ndarray) -> CompositeMeasurement:
    """Gauss-Newton on the stacked weighted least squares, to a step below
    GN_TOL.

    Bearing residuals are wrapped to (-pi, pi] before weighting.  Raises
    RankDeficiencyError on unobservable geometry and DivergenceError after
    GN_MAX_ITER steps.  The rank test is Gauss-Newton's, on its first
    normal matrix: the Fisher information at init.
    """
    init = np.asarray(init, dtype=float)
    if not np.all(np.isfinite(init)):
        raise ValueError("initial state must be finite")
    if len(stack) < 2:
        raise RankDeficiencyError(
            f"{2 * len(stack)} equations cannot determine 4 state components")
    s, iters, step_norm, status = _kernels.gauss_newton(
        stack.values, stack.times, stack.radar_xy, 1.0 / stack.cov_diag,
        stack.t_fuse, init, GN_TOL, GN_MAX_ITER)
    if status < 0:
        raise RankDeficiencyError("stacked Jacobians are jointly rank-deficient")
    if status == 0:
        raise DivergenceError(f"no convergence in {GN_MAX_ITER} iterations "
                              f"(last step {step_norm:.3e})")
    info = fim(stack, s)
    cov, jittered = inv_psd(info)
    cov = 0.5 * (cov + cov.T)
    return CompositeMeasurement(estimate=s, covariance=cov,
                                iterations=int(iters),
                                step_norm=float(step_norm),
                                jittered=jittered)


def prior_information(prev_info: np.ndarray, F: np.ndarray,
                      Gamma: np.ndarray) -> np.ndarray:
    """One-step predicted information [Gamma + F B^{-1} F^T]^{-1}, each
    inverse jittered when singular."""
    prev_inv, _ = inv_psd(prev_info)
    pred_cov = Gamma + F @ prev_inv @ F.T
    out, _ = inv_psd(pred_cov)
    return 0.5 * (out + out.T)
