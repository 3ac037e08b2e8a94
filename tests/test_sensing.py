"""Resource-dependent measurement noise and the per-entry information
kernels.

The noise law (covariance = constant kernel * denominator / energy) is
exercised where measurements are simulated: tracker._stack_interval."""

import numpy as np
import pytest

from hrcn.allocator import AllocationLayout, baseline_uniform, info_scale
from hrcn.kinematics import (measure, measurement_jacobian, transition_matrix)
from hrcn.scenario import build_schedule, default_scenario_path, load_scenario
from hrcn.sensing import const_kernel, info_kernel_D
from hrcn.tracker import _stack_interval

from conftest import make_mini_scenario


def _stack(power=2.0, dwell=1.0, comm=0.0, gain=1.0, noise_var=1.0,
           revisit=2.0, noise=1.0, seed=0):
    """Stacked measurements of the one-MMR mini scenario's target in
    interval 0 (radar power `power`, dwell `dwell`, one downlink of power
    `comm` interfering with gain |alpha^c|^2 = `gain`, standard-normal draws
    scaled by `noise`), and the radar's constant kernel."""
    sc = make_mini_scenario(fixed_dwell=dwell, comm_to_radar=np.sqrt(gain),
                            revisit=revisit)
    sc.radars[0].noise_var = noise_var
    sch = build_schedule(sc)
    lay = AllocationLayout.from_scenario(sc)
    z = np.array([power, comm])
    draws = noise * np.random.default_rng(seed).standard_normal(
        (sch.counts[0, 0, 0], 2))
    stack = _stack_interval(sc, sch, lay, z, 0, 0, sc.targets[0].initial_state,
                            0.0, draws)
    return stack, const_kernel(sc.radars[0], sc.targets[0].rcs[0])


def _default_stack(z=None, noise=1.0, seed=11):
    """Stacked measurements of target 0 in interval 0 of the default
    scenario (uniform allocation unless z is given), with standard-normal
    draws scaled by `noise`."""
    sc = load_scenario(default_scenario_path())
    sch = build_schedule(sc)
    lay = AllocationLayout.from_scenario(sc)
    if z is None:
        z = baseline_uniform(sc, sch, 0)
    draws = noise * np.random.default_rng(seed).standard_normal(
        (sch.counts[:, 0, 0].sum(), 2))
    stack = _stack_interval(sc, sch, lay, z, 0, 0, sc.targets[0].initial_state,
                            sc.grid.start_time, draws)
    return sc, lay, z, stack


class TestMeasCov:
    def test_doubling_power_halves_cov(self):
        base, _ = _stack(power=2.0)
        double, _ = _stack(power=4.0)
        assert len(base) == 3
        np.testing.assert_allclose(double.cov_diag, 0.5 * base.cov_diag)

    def test_unit_scale_recovers_kernel(self):
        stack, kernel = _stack(power=1.0, dwell=1.0, comm=0.0, noise_var=1.0)
        np.testing.assert_allclose(stack.cov_diag, np.tile(kernel, (3, 1)))

    def test_hand_value(self):
        # gain 1, P_c = 3, sigma_r^2 = 1, P*T = 2 -> denominator / energy = 2
        stack, kernel = _stack(power=2.0, dwell=1.0, comm=3.0, gain=1.0,
                               noise_var=1.0)
        np.testing.assert_allclose(stack.cov_diag, np.tile(2.0 * kernel, (3, 1)))

    def test_monotone_in_interference_and_resources(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, t = rng.uniform(0.5, 5, 2)
            pc = rng.uniform(0, 10)
            base = _stack(power=p, dwell=t, comm=pc)[0].cov_diag
            assert np.all(_stack(power=p, dwell=t, comm=pc + 1)[0].cov_diag > base)
            assert np.all(_stack(power=p + 1, dwell=t, comm=pc)[0].cov_diag < base)
            assert np.all(_stack(power=p, dwell=t + 1, comm=pc)[0].cov_diag < base)

    def test_factorization_recovers_kernel(self):
        # every radar kind: covariance times P*T / denominator is the kernel
        sc, lay, z, stack = _default_stack()
        scale = info_scale(sc, lay, z)[:, 0]
        assert set(stack.radar_ids) >= {sc.mmr_indices[0], sc.par_indices[0],
                                        sc.msr_indices[0]}
        for row, i in enumerate(stack.radar_ids):
            kernel = const_kernel(sc.radars[i], sc.targets[0].rcs[i])
            np.testing.assert_allclose(stack.cov_diag[row] * scale[i], kernel,
                                       rtol=1e-14)

    def test_zero_energy_rejected(self):
        # a radar with zero energy stacks no rows but still consumes its
        # draws, so every other radar's rows are unchanged
        sc, lay, z, full = _default_stack()
        off = sc.mmr_indices[0]
        z0 = z.copy()
        z0[lay.var[off]] = 0.0
        _, _, _, cut = _default_stack(z=z0)
        keep = full.radar_ids != off
        assert np.any(full.radar_ids > off) and not np.all(keep)
        assert off not in cut.radar_ids
        np.testing.assert_array_equal(cut.values, full.values[keep])
        np.testing.assert_array_equal(cut.cov_diag, full.cov_diag[keep])


class TestSimulateMeasurement:
    def test_noiseless_limit(self):
        sc, _, _, stack = _default_stack(noise=0.0)
        truth = sc.targets[0].initial_state
        for row, i in enumerate(stack.radar_ids):
            s_t = transition_matrix(stack.times[row] - sc.grid.start_time) @ truth
            r0, th0 = measure(s_t, sc.radars[i].position)
            assert tuple(stack.values[row]) == (pytest.approx(r0),
                                                pytest.approx(th0))

    def test_sample_covariance(self):
        noisy, _ = _stack(comm=3.0, revisit=1e-4, seed=2)
        clean, _ = _stack(comm=3.0, revisit=1e-4, noise=0.0)
        assert len(noisy) > 30_000
        sample = np.var(noisy.values - clean.values, axis=0)
        np.testing.assert_allclose(sample, noisy.cov_diag[0], rtol=0.03)

    def test_seed_determinism(self):
        a = _default_stack(seed=7)[3]
        b = _default_stack(seed=7)[3]
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.cov_diag, b.cov_diag)


KERNEL = np.array([4.0, 0.25])


class TestInfoKernelD:
    STATE = np.array([2000.0, 100.0, 3000.0, 60.0])

    def test_empty_schedule_gives_zero(self):
        D = info_kernel_D((0.0, 0.0), np.array([]), 6.0, self.STATE, KERNEL)
        np.testing.assert_array_equal(D, np.zeros((4, 4)))

    def test_single_measurement_rank_at_most_two(self):
        D = info_kernel_D((0.0, 0.0), np.array([3.0]), 6.0, self.STATE, KERNEL)
        assert np.linalg.matrix_rank(D, tol=1e-8 * np.trace(D)) <= 2

    def test_matches_bruteforce_accumulation(self):
        times = np.array([2.0, 4.0, 6.0])
        t_fuse = 6.0
        radar = np.array([500.0, -200.0])
        D = info_kernel_D(radar, times, t_fuse, self.STATE, KERNEL)
        expected = np.zeros((4, 4))
        for t in times:
            F_back = transition_matrix(t - t_fuse)
            s_t = F_back @ self.STATE
            H = measurement_jacobian(s_t, radar) @ F_back
            expected += H.T @ np.diag(1.0 / KERNEL) @ H
        np.testing.assert_allclose(D, expected, rtol=1e-12, atol=1e-20)

    def test_symmetric_psd_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            state = rng.uniform(-5000, 5000, 4)
            radar = rng.uniform(-5000, 5000, 2)
            times = np.sort(rng.uniform(0.5, 6.0, 4))
            D3 = info_kernel_D(radar, times[:3], 6.0, state, KERNEL)
            D4 = info_kernel_D(radar, times, 6.0, state, KERNEL)
            np.testing.assert_allclose(D4, D4.T, atol=1e-18)
            assert np.min(np.linalg.eigvalsh(D4 - D3)) >= -1e-12
