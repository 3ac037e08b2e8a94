"""The resource-independent factors of the measurement model: each radar's
constant noise kernel and the per-radar information kernels of a target's
rows in one interval.  The resource-dependent part of the noise (energy over
interference plus noise) is allocator.info_scale."""

from typing import TYPE_CHECKING

import numpy as np

from . import _kernels

if TYPE_CHECKING:  # scenario imports this module to lay out its schedule
    from .scenario import MeasurementRows, RadarNode


def const_kernel(radar: "RadarNode", rcs: float) -> np.ndarray:
    """Diagonal of the resource-independent 2x2 factor of the measurement
    covariance: [rcs * bandwidth^2 * c_R, rcs * beamwidth^2 * c_theta]."""
    return np.array([rcs * radar.bandwidth ** 2 * radar.range_const,
                     rcs * radar.beamwidth ** 2 * radar.bearing_const])


def info_kernel_D(rows: "MeasurementRows", start, t_fuse,
                  prior_state: np.ndarray) -> np.ndarray:
    """(..., N, 4, 4) resource-independent information kernels of a
    target's rows in one interval, radar i's being rows start[i]:start[i+1]
    (start (..., N+1)): per radar, the sum over its scheduled measurements
    of H^T C^{-1} H with C the row's constant kernel.

    H is the Jacobian with respect to the fusion-time state, evaluated at the
    predicted prior back-propagated to each measurement time.  A radar with
    no rows gets the zero matrix.  Row sets of one length stack, with their
    offsets, the fusion times and prior states (..., 4), as fim_accumulate's
    batch axes.
    """
    return _kernels.fim_accumulate(np.asarray(prior_state, dtype=float),
                                   t_fuse, rows.times, rows.radar_xy,
                                   1.0 / rows.kernel, start)
