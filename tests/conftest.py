"""Shared fixtures: the packaged default scenario, a small single-radar
scenario factory for targeted tests, per-kind radar indices, schedule
blocks and per-radar schedule times, one member's stacked measurements,
the solver's closed-form slack matrices, floors that the even comm split
misses, and the per-row range/bearing Jacobian oracle."""

import numpy as np
import pytest

from hrcn import _kernels
from hrcn.allocator import _slack, _weighted_crb
from hrcn.fusion import StackedMeasurements
from hrcn.scenario import (CommSystem, FusionGrid, RadarKind, RadarNode,
                           Scenario, TargetTruth, build_schedule,
                           default_scenario_path, load_scenario, validate)
from hrcn.tracker import _noise_free, _stack_interval


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def schedule(scenario):
    return build_schedule(scenario)


def kind_indices(scenario, kind):
    """Indices of the scenario's radars of one RadarKind."""
    return [i for i, r in enumerate(scenario.radars) if r.kind is kind]


def block(schedule, q, k):
    """(rows, start): the schedule rows of target q in interval k, block
    k * Q + q of the row table, and their radar offsets, radar i's rows
    being rows[start[i]:start[i + 1]]."""
    b = k * schedule.counts.shape[1] + q
    rows = schedule.rows[schedule.bounds[b]:schedule.bounds[b + 1]]
    return rows, np.concatenate(([0], np.cumsum(schedule.counts[:, q, k])))


def radar_times(schedule, i, q, k):
    """Measurement times of radar i on target q in interval k: radar i's
    part of block (q, k)."""
    rows, start = block(schedule, q, k)
    return rows.times[start[i]:start[i + 1]]


def stack_alone(rows, weight, truth_k, t_k, t_fuse, draws):
    """tracker._stack_interval for one member in one trial, weight (R,),
    truth_k (4,) at time t_k and draws (R, 2), its rows' noise-free values
    from tracker._noise_free, cut to the rows the member fuses: those of
    positive weight, a row of zero weight being stacked at infinite
    variance.  The stack's member and trial axes are taken off: values
    (M, 2), times (M,)."""
    clean = _noise_free(rows, truth_k, t_k)
    stack = _stack_interval(rows, weight[None], clean[None], draws[None],
                            t_fuse)
    fused = weight > 0
    return StackedMeasurements(
        values=stack.values[0, 0, fused], times=stack.times[fused],
        radar_xy=stack.radar_xy[fused], cov_diag=stack.cov_diag[0, 0, fused],
        t_fuse=stack.t_fuse)


def inner_v_update(B, lam_inv):
    """Closed-form minimizer of the trace-constrained inner problem, for
    each information of the stack B (..., 4, 4): normalized inverse of
    diag(lam_inv) B diag(lam_inv), from the solver's own slack code."""
    lam = 1.0 / lam_inv
    return _slack(*_weighted_crb(B, lam)[:2], lam)


def floors_the_even_comm_split_misses(scenario, schedule):
    """Throughput floors with link 0's halfway between what a third and all
    of the base-station budget reach in interval 0 with zero optimized radar
    resources, and the other links' at 0: interval 0's polyhedron is not
    empty, but the even comm split misses link 0's floor."""
    from hrcn.allocator import AllocationLayout, throughput_r
    layout = AllocationLayout.from_scenario(scenario)
    counts = schedule.counts[:, :, 0]
    z = np.zeros(layout.dim)
    z[layout.n_radar_vars:] = scenario.comm.power_budget / 3
    r_even = throughput_r(0, z, scenario, layout, counts)
    z[layout.n_radar_vars:] = 0.0
    z[layout.n_radar_vars] = scenario.comm.power_budget
    r_full = throughput_r(0, z, scenario, layout, counts)
    floors = np.zeros(scenario.comm.num_links)
    floors[0] = 0.5 * (r_even + r_full)
    return floors


def make_mini_scenario(t0=6.0, num_intervals=1, start_time=0.0,
                       initial_time=2.0, revisit=2.0, fixed_dwell=0.02,
                       power_budget=100.0, comm_noise_var=0.1,
                       comm_power_budget=30.0, throughput_floor=0.0,
                       radar_to_comm=0.01, comm_to_radar=0.1):
    """One MMR, one downlink, one target; every knob overridable."""
    radar = RadarNode(
        id=1, kind=RadarKind.MMR, position=np.array([0.0, 0.0]),
        bandwidth=1e6, beamwidth=0.05, noise_var=1.0,
        range_const=1e-10, bearing_const=1.6e-3,
        initial_time=np.array([initial_time]),
        revisit_interval=np.array([revisit]),
        fixed_dwell=fixed_dwell, power_budget=power_budget)
    comm = CommSystem(
        num_links=1, noise_var=comm_noise_var,
        power_budget=comm_power_budget,
        throughput_floor=np.array([throughput_floor]),
        radar_to_comm_gain=np.array([[radar_to_comm + 0j]]),
        comm_to_radar_gain=np.array([[comm_to_radar + 0j]]))
    target = TargetTruth(id=1,
                         initial_state=np.array([2000.0, 100.0, 3000.0, 60.0]),
                         process_noise_intensity=1.0, rcs=np.array([1.0]))
    sc = Scenario(radars=[radar], comm=comm, targets=[target],
                  grid=FusionGrid(interval_length=t0,
                                  num_intervals=num_intervals,
                                  start_time=start_time))
    validate(sc)
    return sc


def measurement_jacobian(state: np.ndarray, radar_position) -> np.ndarray:
    """2x4 Jacobian of (range, bearing) with respect to the state: the
    zero-lag case of the fusion's chained Jacobian.

    Velocity columns are exactly zero; the measurement depends on position
    only.
    """
    radar_xy = np.asarray(radar_position, dtype=float).reshape(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        H, r, _ = _kernels._chain_jacobian(np.asarray(state, dtype=float),
                                           np.zeros(1), radar_xy)
    if r[0] == 0.0:
        raise ValueError("zero range; Jacobian undefined")
    return H[0]
