"""Constant-velocity motion model and the range/bearing measurement pair."""

import numpy as np
import pytest

from hrcn.kinematics import measure, process_noise_cov, transition_matrix

from conftest import measurement_jacobian


class TestTransitionMatrix:
    def test_zero_dt_is_identity(self):
        np.testing.assert_array_equal(transition_matrix(0.0), np.eye(4))

    def test_unit_velocity_advance(self):
        s = transition_matrix(1.0) @ np.array([0.0, 1.0, 0.0, 2.0])
        np.testing.assert_allclose(s, [1.0, 1.0, 2.0, 2.0])

    def test_group_inverse(self):
        np.testing.assert_allclose(
            transition_matrix(2.0) @ transition_matrix(-2.0), np.eye(4),
            atol=0.0)

    def test_semigroup(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-10, 10, 2)
            np.testing.assert_array_equal(
                transition_matrix(a) @ transition_matrix(b),
                transition_matrix(a + b))

    def test_unit_determinant(self):
        assert np.linalg.det(transition_matrix(7.3)) == pytest.approx(1.0)

    def test_nonfinite_dt_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix(np.nan)


class TestProcessNoiseCov:
    def test_zero_intensity(self):
        np.testing.assert_array_equal(process_noise_cov(2.0, 0.0),
                                      np.zeros((4, 4)))

    def test_unit_block(self):
        G = process_noise_cov(1.0, 1.0)
        block = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
        np.testing.assert_allclose(G[:2, :2], block)
        np.testing.assert_allclose(G[2:, 2:], block)
        np.testing.assert_array_equal(G[:2, 2:], np.zeros((2, 2)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            G = process_noise_cov(rng.uniform(0.1, 20), rng.uniform(0, 5))
            np.testing.assert_array_equal(G, G.T)
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-12

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            process_noise_cov(0.0, 1.0)

    def test_intensity_vector_gives_each_scalar_cov_bitwise(self):
        # one (Q, 4, 4) stack for Q targets, each member the scalar
        # intensity times the per-axis block, as one call per target gives
        dt, intensities = 6.0, [0.0, 0.5, 1.0, 3.7]
        G = process_noise_cov(dt, intensities)
        assert G.shape == (4, 4, 4)
        for q, intensity in enumerate(intensities):
            block = intensity * np.array([[dt ** 3 / 3.0, dt ** 2 / 2.0],
                                          [dt ** 2 / 2.0, dt]])
            want = np.zeros((4, 4))
            want[:2, :2] = want[2:, 2:] = block
            assert G[q].tobytes() == want.tobytes()
            assert process_noise_cov(dt, intensity).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="nonnegative"):
            process_noise_cov(dt, [1.0, -0.5])


class TestMeasure:
    def test_on_axis_east(self):
        r, th = measure(np.array([100.0, 0, 0.0, 0]), (0.0, 0.0))
        assert r == pytest.approx(100.0)
        assert th == pytest.approx(0.0)

    def test_orthogonal_axis(self):
        r, th = measure(np.array([0.0, 0, 100.0, 0]), (0.0, 0.0))
        assert r == pytest.approx(100.0)
        assert th == pytest.approx(np.pi / 2)

    def test_four_quadrant_west(self):
        r, th = measure(np.array([-100.0, 0, 0.0, 0]), (0.0, 0.0))
        assert r == pytest.approx(100.0)
        assert th == pytest.approx(np.pi)

    def test_coincident_position_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            measure(np.array([5.0, 0, 7.0, 0]), (5.0, 7.0))

    def test_range_rotation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = rng.uniform(-1000, 1000, 4)
            radar = rng.uniform(-1000, 1000, 2)
            phi = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(phi), -np.sin(phi)],
                          [np.sin(phi), np.cos(phi)]])
            pos = radar + R @ (np.array([s[0], s[2]]) - radar)
            rotated = np.array([pos[0], 0, pos[1], 0])
            r0, _ = measure(s, radar)
            r1, _ = measure(rotated, radar)
            assert r1 == pytest.approx(r0, rel=1e-12)


class TestMeasurementJacobian:
    def test_on_axis_east_rows(self):
        H = measurement_jacobian(np.array([250.0, 0, 0.0, 0]), (0.0, 0.0))
        np.testing.assert_allclose(H[0], [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(H[1], [0, 0, 1 / 250.0, 0], atol=1e-15)

    def test_velocity_columns_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(-1000, 1000, 4)
            H = measurement_jacobian(s, (0.0, 0.0))
            np.testing.assert_array_equal(H[:, 1], 0.0)
            np.testing.assert_array_equal(H[:, 3], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        # eps balances central-difference truncation against roundoff in
        # the O(5000 m) range values
        eps = 1e-2
        checked = 0
        while checked < 1000:
            s = rng.uniform(-5000, 5000, 4)
            radar = rng.uniform(-5000, 5000, 2)
            if np.hypot(s[0] - radar[0], s[2] - radar[1]) < 50.0:
                continue
            H = measurement_jacobian(s, radar)
            for col in (0, 2):
                hi, lo = s.copy(), s.copy()
                hi[col] += eps
                lo[col] -= eps
                num = (np.array(measure(hi, radar))
                       - np.array(measure(lo, radar))) / (2 * eps)
                np.testing.assert_allclose(H[:, col], num, rtol=1e-6,
                                           atol=1e-9)
            checked += 1

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="zero range"):
            measurement_jacobian(np.array([1.0, 0, 2.0, 0]), (1.0, 2.0))
