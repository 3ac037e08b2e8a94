"""The resource-independent factors of the measurement model: each radar's
constant noise kernel and the per-schedule-entry information kernels.  The
resource-dependent part of the noise (energy over interference plus noise)
is allocator.info_scale."""

import numpy as np

from . import _kernels
from .scenario import RadarNode


def const_kernel(radar: RadarNode, rcs: float) -> np.ndarray:
    """Diagonal of the resource-independent 2x2 factor of the measurement
    covariance: [rcs * bandwidth^2 * c_R, rcs * beamwidth^2 * c_theta]."""
    return np.array([rcs * radar.bandwidth ** 2 * radar.range_const,
                     rcs * radar.beamwidth ** 2 * radar.bearing_const])


def info_kernel_D(radar_position, times: np.ndarray, t_fuse: float,
                  prior_state: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Resource-independent information kernel of one (radar, target,
    interval) schedule entry: sum over measurement times of H^T C^{-1} H.

    H is the Jacobian with respect to the fusion-time state, evaluated at the
    predicted prior back-propagated to each measurement time.  Empty schedules
    give the zero matrix.
    """
    m = len(times)
    if m == 0:
        return np.zeros((4, 4))
    radar_xy = np.tile(np.asarray(radar_position, dtype=float), (m, 1))
    winv = np.tile(1.0 / kernel, (m, 1))
    return _kernels.fim_accumulate(np.asarray(prior_state, dtype=float),
                                   float(t_fuse),
                                   np.asarray(times, dtype=float),
                                   radar_xy, winv)
