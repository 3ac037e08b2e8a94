"""Composite measurement construction: iterative least-squares MLE over the
stacked interval measurements, its Fisher information, and the one-step
predicted information that seeds the Bayesian recursion."""

from dataclasses import dataclass

import numpy as np

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
    if len(stack) == 0:
        return np.zeros((4, 4))
    winv = 1.0 / stack.cov_diag
    return _kernels.fim_accumulate(np.asarray(eval_state, dtype=float),
                                   stack.t_fuse, stack.times,
                                   stack.radar_xy, winv)


def inv_psd(mat: np.ndarray, jitter: float) -> tuple[np.ndarray, bool]:
    """Inverse of mat, retried as inv(mat + jitter I) when mat is singular
    (raises when jitter <= 0).  The flag says whether the jitter was used."""
    try:
        return np.linalg.inv(mat), False
    except np.linalg.LinAlgError:
        if jitter <= 0:
            raise
        return np.linalg.inv(mat + jitter * np.eye(mat.shape[0])), True


def ils_mle(stack: StackedMeasurements, init: np.ndarray,
            tol: float = 1e-8, max_iter: int = 50,
            jitter: float = 1e-9) -> CompositeMeasurement:
    """Gauss-Newton on the stacked weighted least squares.

    Bearing residuals are wrapped to (-pi, pi] before weighting.  Raises
    RankDeficiencyError on unobservable geometry and DivergenceError when the
    iteration cap is hit.
    """
    init = np.asarray(init, dtype=float)
    if not np.all(np.isfinite(init)):
        raise ValueError("initial state must be finite")
    if len(stack) < 2:
        raise RankDeficiencyError(
            f"{2 * len(stack)} equations cannot determine 4 state components")
    info0 = fim(stack, init)
    if np.linalg.matrix_rank(info0, tol=1e-10 * max(1.0, np.trace(info0))) < 4:
        raise RankDeficiencyError("stacked Jacobians are jointly rank-deficient")

    winv = 1.0 / stack.cov_diag
    s, iters, step_norm, ok = _kernels.gauss_newton(
        stack.values, stack.times, stack.radar_xy, winv,
        stack.t_fuse, init, tol, max_iter)
    if not ok:
        raise DivergenceError(
            f"no convergence in {max_iter} iterations (last step {step_norm:.3e})")
    info = fim(stack, s)
    cov, jittered = inv_psd(info, jitter)
    cov = 0.5 * (cov + cov.T)
    return CompositeMeasurement(estimate=s, covariance=cov,
                                iterations=int(iters),
                                step_norm=float(step_norm),
                                jittered=jittered)


def prior_information(prev_info: np.ndarray, F: np.ndarray,
                      Gamma: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """One-step predicted information [Gamma + F B^{-1} F^T]^{-1}."""
    prev_inv, _ = inv_psd(prev_info, jitter)
    pred_cov = Gamma + F @ prev_inv @ F.T
    out, _ = inv_psd(pred_cov, jitter)
    return 0.5 * (out + out.T)
