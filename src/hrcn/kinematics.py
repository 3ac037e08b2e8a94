"""Constant-velocity motion model and the range/bearing measurement pair.

State convention throughout the package: ``[x, vx, y, vy]`` in SI units on a
flat 2-D plane.
"""

import numpy as np


def transition_matrix(dt: float) -> np.ndarray:
    """4x4 constant-velocity transition matrix for a time step dt.

    Negative dt gives the exact backward map (the CV group inverse).
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    F = np.eye(4)
    F[0, 1] = dt
    F[2, 3] = dt
    return F


def process_noise_cov(dt: float, intensity) -> np.ndarray:
    """Continuous white-noise-acceleration process covariance over dt seconds,
    (..., 4, 4) for intensities of shape (...).

    Per axis the 2x2 block is intensity * [[dt^3/3, dt^2/2], [dt^2/2, dt]],
    lifted block-diagonally to the 4-state layout.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    intensity = np.asarray(intensity, dtype=float)
    if np.any(intensity < 0):
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    block = intensity[..., None, None] * np.array(
        [[dt ** 3 / 3.0, dt ** 2 / 2.0], [dt ** 2 / 2.0, dt]])
    G = np.zeros(intensity.shape + (4, 4))
    G[..., :2, :2] = block
    G[..., 2:, 2:] = block
    return G


def measure(state: np.ndarray, radar_position):
    """Range and bearing of states (..., 4) as seen from radar positions
    (..., 2), as two arrays of the broadcast batch shape (numpy scalars for
    one state and one position).  Bearing uses the four-quadrant convention
    (atan2 of dy, dx), so the measurement is well defined everywhere except
    at the radar itself.
    """
    state = np.asarray(state, dtype=float)
    radar_position = np.asarray(radar_position, dtype=float)
    dx = state[..., 0] - radar_position[..., 0]
    dy = state[..., 2] - radar_position[..., 1]
    r = np.hypot(dx, dy)
    if np.any(r == 0.0):
        raise ValueError("target coincides with radar position; bearing undefined")
    return r, np.arctan2(dy, dx)

