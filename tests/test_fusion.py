"""Composite-measurement fusion: Gauss-Newton MLE, Fisher information, and
the one-step predicted information."""

from dataclasses import replace

import numpy as np
import pytest

from hrcn import _kernels, fusion
from hrcn.fusion import (JITTER, DivergenceError, RankDeficiencyError,
                         StackedMeasurements, fim, ils_mle, inv_psd,
                         prior_information)
from hrcn.kinematics import measure, process_noise_cov, transition_matrix

from conftest import measurement_jacobian

RADARS = np.array([[0.0, 0.0], [10000.0, 0.0], [0.0, 10000.0]])
TRUE_STATE = np.array([4000.0, 80.0, 5000.0, -60.0])
T_FUSE = 6.0


def make_stack(noise_rng=None, cov_scale=1.0, n_radars=3, times_per=3,
               state=TRUE_STATE):
    """Stacked range/bearing fixes generated from state at T_FUSE."""
    vals, times, rxy, cdiag = [], [], [], []
    base_cov = np.array([25.0, 1e-6])
    for i in range(n_radars):
        for m in range(times_per):
            t = 2.0 + 2.0 * m
            s_t = transition_matrix(t - T_FUSE) @ state
            r, th = measure(s_t, RADARS[i])
            cov = cov_scale * base_cov
            if noise_rng is not None:
                noise = np.sqrt(cov) * noise_rng.standard_normal(2)
                r, th = r + noise[0], th + noise[1]
            vals.append([r, th])
            times.append(t)
            rxy.append(RADARS[i])
            cdiag.append(cov)
    return StackedMeasurements(
        values=np.array(vals), times=np.array(times),
        radar_xy=np.array(rxy), cov_diag=np.array(cdiag), t_fuse=T_FUSE)


class TestIlsMle:
    def test_noiseless_recovery(self):
        stack = make_stack()
        init = TRUE_STATE + np.array([10.0, 1.0, -10.0, -1.0])
        cm = ils_mle(stack, init)
        np.testing.assert_allclose(cm.estimate, TRUE_STATE, atol=1e-6)
        assert cm.step_norm < 1e-8

    def test_underdetermined_rejected(self):
        one = make_stack(n_radars=1, times_per=1)
        # three fixes from one radar at one time: six equations of rank 2,
        # caught by the rank test on the first normal matrix
        repeated = StackedMeasurements(
            values=np.repeat(one.values, 3, axis=0),
            times=np.repeat(one.times, 3),
            radar_xy=np.repeat(one.radar_xy, 3, axis=0),
            cov_diag=np.repeat(one.cov_diag, 3, axis=0), t_fuse=one.t_fuse)
        for stack in (one, repeated):
            with pytest.raises(RankDeficiencyError):
                ils_mle(stack, TRUE_STATE)

    def test_covariance_scale_equivariance(self):
        rng = np.random.default_rng(0)
        stack1 = make_stack(noise_rng=np.random.default_rng(1))
        stack_c = StackedMeasurements(
            values=stack1.values, times=stack1.times,
            radar_xy=stack1.radar_xy, cov_diag=3.0 * stack1.cov_diag,
            t_fuse=stack1.t_fuse)
        init = TRUE_STATE + rng.normal(0, 10, 4)
        cm1 = ils_mle(stack1, init)
        cm3 = ils_mle(stack_c, init)
        np.testing.assert_allclose(cm3.estimate, cm1.estimate, rtol=1e-8)
        np.testing.assert_allclose(cm3.covariance, 3.0 * cm1.covariance,
                                   rtol=1e-8)

    def test_nonfinite_init_rejected(self):
        with pytest.raises(ValueError):
            ils_mle(make_stack(), np.array([np.nan, 0, 0, 0]))

    def test_divergence_reported(self, monkeypatch):
        stack = make_stack(noise_rng=np.random.default_rng(2))
        monkeypatch.setattr(fusion, "GN_MAX_ITER", 1)
        monkeypatch.setattr(fusion, "GN_TOL", 1e-15)
        with pytest.raises(DivergenceError):
            ils_mle(stack, TRUE_STATE)

    def test_bearings_straddling_pi(self):
        # the target crosses the -x axis of the radars at (0, 0) and
        # (10000, 0) mid-interval, so their bearings sit on both sides of
        # +-pi and unwrapped residuals would be off by 2 pi
        state = np.array([-5000.0, 10.0, 20.0, 10.0])
        stack = make_stack(noise_rng=np.random.default_rng(8), state=state)
        radar_ids = np.repeat(np.arange(3), 3)  # make_stack's row order
        wrapped = stack.values[radar_ids < 2, 1]
        assert wrapped.min() < -3.0 and wrapped.max() > 3.0
        cm = ils_mle(stack, state + np.array([10.0, 1.0, -10.0, -1.0]))
        sd = np.sqrt(np.diag(cm.covariance))
        assert np.all(np.abs(cm.estimate - state) <= 5.0 * sd)


class TestBatchedGaussNewton:
    def test_members_stop_as_they_would_alone(self):
        # one batch on one row set: a member that converges at once, one so
        # far away that its first normal matrix is rank-deficient, and one
        # that is still moving at the iteration cap
        noisy = make_stack(noise_rng=np.random.default_rng(5))
        y = np.stack([make_stack().values, noisy.values, noisy.values])
        s0 = np.stack([TRUE_STATE,
                       TRUE_STATE + np.array([1e12, 0.0, 1e12, 0.0]),
                       TRUE_STATE + np.array([3000.0, 50.0, -3000.0, -50.0])])
        args = (noisy.times, noisy.radar_xy, 1.0 / noisy.cov_diag,
                noisy.t_fuse)
        states, steps, norms, status = _kernels.gauss_newton(
            y, *args, s0, 1e-8, 4)
        assert status.tolist() == [1, -1, 0]
        assert type(steps) is int
        alone_steps = 0
        for i in range(3):
            state, n, norm, st = _kernels.gauss_newton(y[i], *args, s0[i],
                                                       1e-8, 4)
            alone_steps += n
            assert st.shape == () and int(st) == status[i]
            assert states[i].tobytes() == state.tobytes()
            assert norms[i].tobytes() == norm.tobytes()
        assert steps == alone_steps == 5
        assert states[1].tobytes() == s0[1].tobytes()  # no step taken

    def test_failures_name_the_member(self):
        noisy = make_stack(noise_rng=np.random.default_rng(5))
        batch = StackedMeasurements(
            values=np.stack([noisy.values] * 3), times=noisy.times,
            radar_xy=noisy.radar_xy, cov_diag=noisy.cov_diag,
            t_fuse=noisy.t_fuse)
        init = np.stack([TRUE_STATE] * 3)
        init[2, ::2] += 1e12
        with pytest.raises(RankDeficiencyError,
                           match="rank-deficient in batch member 2") as exc:
            ils_mle(batch, init)
        assert exc.value.member == 2
        cm = ils_mle(replace(batch, values=batch.values[:2]), init[:2])
        assert cm.estimate.shape == (2, 4) and cm.jittered == 0
        assert cm.estimate[0].tobytes() == cm.estimate[1].tobytes()

    def test_values_and_states_must_pair_up(self):
        # values for three fixes against two initial states, and one fix
        # against three: neither has one fix per state
        noisy = make_stack(noise_rng=np.random.default_rng(5))
        batch = replace(noisy, values=np.stack([noisy.values] * 3))
        with pytest.raises(ValueError, match="do not match"):
            ils_mle(batch, np.stack([TRUE_STATE] * 2))
        with pytest.raises(ValueError, match="do not match"):
            ils_mle(noisy, np.stack([TRUE_STATE] * 3))


def _member_stacks(n_trials=2):
    """Three (member, trial) batches of fixes of 9 rows each, every member
    on its own row set: its radars moved and its times shifted, measuring
    its own state."""
    rng = np.random.default_rng(21)
    sets, states = [], []
    for i in range(3):
        shift = np.array([1500.0 * i, -700.0 * i])
        state = TRUE_STATE + np.array([300.0 * i, 5.0, -200.0 * i, -4.0 * i])
        vals, times, rxy, cdiag = [], [], [], []
        for radar in RADARS + shift:
            for m in range(3):
                t = 1.5 + 0.5 * i + 1.7 * m
                r, th = measure(transition_matrix(t - T_FUSE) @ state, radar)
                cov = np.array([25.0, 1e-6]) * (1.0 + i)
                vals.append([r, th] + np.sqrt(cov)
                            * rng.standard_normal((n_trials, 2)))
                times.append(t)
                rxy.append(radar)
                cdiag.append(cov)
        sets.append((np.swapaxes(vals, 0, 1), times, rxy, cdiag))
        states.append(state)
    values, times, rxy, cdiag = (np.array(a) for a in zip(*sets))
    return StackedMeasurements(
        values=values, times=times[:, None], radar_xy=rxy[:, None],
        cov_diag=cdiag[:, None], t_fuse=T_FUSE), np.array(states)


class TestRowSetPerMember:
    """Members on their own row sets of one length fuse in one call exactly
    as each would alone."""

    @staticmethod
    def _alone(batch, i, t):
        return StackedMeasurements(
            values=batch.values[i, t], times=batch.times[i, 0],
            radar_xy=batch.radar_xy[i, 0], cov_diag=batch.cov_diag[i, 0],
            t_fuse=batch.t_fuse)

    def test_gauss_newton_bitwise_per_member(self):
        batch, states = _member_stacks()
        s0 = states[:, None] + np.array([[[40.0, 2.0, -30.0, -1.0],
                                          [-900.0, 9.0, 800.0, 6.0]]])
        args = (batch.times, batch.radar_xy, 1.0 / batch.cov_diag,
                batch.t_fuse)
        out, steps, norms, status = _kernels.gauss_newton(
            batch.values, *args, s0, 1e-8, 50)
        assert out.shape == (3, 2, 4) and np.all(status == 1)
        alone_steps = 0
        for i in range(3):
            for t in range(2):
                one = self._alone(batch, i, t)
                state, n, norm, st = _kernels.gauss_newton(
                    one.values, one.times, one.radar_xy, 1.0 / one.cov_diag,
                    one.t_fuse, s0[i, t], 1e-8, 50)
                alone_steps += n
                assert int(st) == status[i, t]
                assert out[i, t].tobytes() == state.tobytes()
                assert norms[i, t].tobytes() == norm.tobytes()
        assert steps == alone_steps

    def test_ils_mle_bitwise_per_member(self):
        batch, states = _member_stacks()
        init = np.repeat(states[:, None], 2, axis=1) + 20.0
        cm = ils_mle(batch, init)
        for i in range(3):
            for t in range(2):
                one = ils_mle(self._alone(batch, i, t), init[i, t])
                assert cm.estimate[i, t].tobytes() == one.estimate.tobytes()
                assert (cm.covariance[i, t].tobytes()
                        == one.covariance.tobytes())

    def test_divergence_names_the_member_that_fails_alone(self,
                                                          monkeypatch):
        # member 1 trial 1 (flat member 3) starts far off and is the first
        # that needs more steps than the cap
        batch, states = _member_stacks()
        init = np.repeat(states[:, None], 2, axis=1).copy()
        init[1, 1] += np.array([8000.0, 130.0, -8000.0, -130.0])
        monkeypatch.setattr(fusion, "GN_MAX_ITER", 6)
        with pytest.raises(DivergenceError) as info:
            ils_mle(batch, init)
        assert info.value.member == 3
        for i in range(3):
            for t in range(2):
                one = self._alone(batch, i, t)
                if (i, t) != (1, 1):
                    ils_mle(one, init[i, t])
                    continue
                with pytest.raises(DivergenceError) as alone:
                    ils_mle(one, init[i, t])
                assert info.value.reason == str(alone.value)


class TestFim:
    def test_matches_bruteforce(self):
        stack = make_stack()
        J = fim(stack, TRUE_STATE)
        expected = np.zeros((4, 4))
        for m in range(len(stack)):
            F_back = transition_matrix(stack.times[m] - stack.t_fuse)
            s_t = F_back @ TRUE_STATE
            H = measurement_jacobian(s_t, stack.radar_xy[m]) @ F_back
            expected += H.T @ np.diag(1.0 / stack.cov_diag[m]) @ H
        np.testing.assert_allclose(J, expected, rtol=1e-12)

    def test_linear_in_inverse_covariance(self):
        stack = make_stack()
        halved = StackedMeasurements(
            values=stack.values, times=stack.times, radar_xy=stack.radar_xy,
            cov_diag=0.5 * stack.cov_diag, t_fuse=stack.t_fuse)
        np.testing.assert_allclose(fim(halved, TRUE_STATE),
                                   2.0 * fim(stack, TRUE_STATE), rtol=1e-12)

    def test_empty_stack_gives_zero(self):
        empty = StackedMeasurements(
            values=np.zeros((0, 2)), times=np.zeros(0),
            radar_xy=np.zeros((0, 2)), cov_diag=np.zeros((0, 2)),
            t_fuse=T_FUSE)
        np.testing.assert_array_equal(fim(empty, TRUE_STATE), np.zeros((4, 4)))

    def test_sample_covariance_near_crb(self):
        # Monte-Carlo efficiency: the ILS estimator should be close to the
        # bound at this noise level (the acceptance suite pins the band)
        crb = np.linalg.inv(fim(make_stack(), TRUE_STATE))
        rng = np.random.default_rng(3)
        errs = []
        for _ in range(300):
            cm = ils_mle(make_stack(noise_rng=rng), TRUE_STATE)
            errs.append(cm.estimate - TRUE_STATE)
        sample = np.cov(np.array(errs).T)
        assert np.trace(sample) >= 0.85 * np.trace(crb)
        assert np.trace(sample) <= 1.5 * np.trace(crb)


class TestPriorInformation:
    F = transition_matrix(T_FUSE)
    GAMMA = process_noise_cov(T_FUSE, 1.0)
    SINGULAR = np.diag([1e-2, 0.0, 1e-2, 0.0])

    def test_singular_prior_jittered(self):
        # the default is the jittered inverse every planning call uses
        out = prior_information(self.SINGULAR, self.F, self.GAMMA)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, out.T)
        prev_inv, _ = inv_psd(self.SINGULAR + JITTER * np.eye(4), 0.0)
        pred, _ = inv_psd(self.GAMMA + self.F @ prev_inv @ self.F.T, 0.0)
        assert out.tobytes() == (0.5 * (pred + pred.T)).tobytes()


class TestInvPsd:
    def test_bitwise_equal_to_numpy_inverse(self):
        rng = np.random.default_rng(1414)
        for scale in np.logspace(-8, 8, 500):
            W = rng.normal(size=(4, 4))
            spd = scale * (W @ W.T + 1e-3 * np.eye(4))
            inv, jittered = inv_psd(spd, 1e-9)
            assert not jittered
            assert inv.tobytes() == np.linalg.inv(spd).tobytes()

    def test_singular_raises_or_jitters(self):
        singular = np.diag([1.0, 2.0, 0.0, 3.0])
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            inv_psd(singular, 0.0)
        inv, jittered = inv_psd(singular, 1e-6)
        assert jittered
        assert inv.tobytes() == np.linalg.inv(
            singular + 1e-6 * np.eye(4)).tobytes()
        # the identity the inverses solve against is never written
        assert inv_psd(np.eye(4), 0.0)[0].tobytes() == np.eye(4).tobytes()

    def test_stack_jitters_only_its_singular_member(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(3, 4, 4))
        stack = W @ np.swapaxes(W, 1, 2) + 1e-3 * np.eye(4)
        stack[1] = np.diag([1.0, 2.0, 0.0, 3.0])
        inv, jittered = inv_psd(stack, 1e-6)
        assert jittered == 1
        for i in (0, 2):
            assert inv[i].tobytes() == np.linalg.inv(stack[i]).tobytes()
        assert inv[1].tobytes() == np.linalg.inv(
            stack[1] + 1e-6 * np.eye(4)).tobytes()
        with pytest.raises(np.linalg.LinAlgError,
                           match="Singular matrix in batch member 1"):
            inv_psd(stack, 0.0)
