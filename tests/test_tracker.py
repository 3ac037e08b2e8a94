"""Kalman filtering over fusion intervals and the closed-loop tracking run."""

import dataclasses
import os
import sys

import numpy as np
import pytest

from hrcn.allocator import AllocationLayout, info_scale
from hrcn import fusion, tracker
from hrcn.fusion import (CompositeMeasurement, FusionError,
                         RankDeficiencyError, ils_mle, prior_information)
from hrcn.harness import POLICIES, plan_allocations
from hrcn.kinematics import measure, process_noise_cov, transition_matrix
from hrcn.scenario import RadarKind, build_schedule, validate
from hrcn.sensing import const_kernel
from hrcn.tracker import (INIT_COV_DIAG, INIT_MEAN_OFFSET, TrackState,
                          _noise_free, _stack_interval, kf_predict,
                          kf_update, run_tracking)

from conftest import block, kind_indices, radar_times, stack_alone

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from scenarios import large_net  # noqa: E402


def _cm(estimate, cov):
    return CompositeMeasurement(estimate=np.asarray(estimate, dtype=float),
                                covariance=np.asarray(cov, dtype=float),
                                iterations=1, step_norm=0.0)


def _random_spd(rng, scale=1.0):
    W = rng.normal(size=(4, 4))
    return scale * (W @ W.T + 0.1 * np.eye(4))


class TestKfPredict:
    def test_identity_limit(self):
        track = TrackState(mean=np.array([1.0, 2.0, 3.0, 4.0]),
                           cov=np.diag([1.0, 2.0, 3.0, 4.0]))
        out = kf_predict(track, 0.0, np.zeros((4, 4)))
        np.testing.assert_array_equal(out.mean, track.mean)
        np.testing.assert_array_equal(out.cov, track.cov)

    def test_stationary_mean_unchanged(self):
        track = TrackState(mean=np.zeros(4), cov=np.eye(4))
        out = kf_predict(track, 12.5, np.zeros((4, 4)))
        np.testing.assert_array_equal(out.mean, np.zeros(4))

    def test_covariance_trace_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            track = TrackState(mean=rng.normal(size=4), cov=_random_spd(rng))
            gam = process_noise_cov(3.0, rng.uniform(0, 2))
            out = kf_predict(track, 3.0, gam)
            assert np.trace(out.cov) >= np.trace(track.cov) - 1e-10


class TestKfUpdate:
    def test_uninformative_measurement(self):
        rng = np.random.default_rng(1)
        prior = TrackState(mean=rng.normal(size=4), cov=_random_spd(rng))
        cm = _cm(rng.normal(size=4), 1e12 * np.eye(4))
        out = kf_update(prior, cm)
        np.testing.assert_allclose(out.mean, prior.mean, rtol=1e-6)
        np.testing.assert_allclose(out.cov, prior.cov, rtol=1e-6)

    def test_uninformative_prior(self):
        rng = np.random.default_rng(2)
        prior = TrackState(mean=rng.normal(size=4), cov=1e12 * np.eye(4))
        cm = _cm(rng.normal(size=4), _random_spd(rng))
        out = kf_update(prior, cm)
        np.testing.assert_allclose(out.mean, cm.estimate, rtol=1e-6,
                                   atol=1e-4)
        np.testing.assert_allclose(out.cov, cm.covariance, rtol=1e-6)

    def test_information_form_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            P = _random_spd(rng)
            R = _random_spd(rng)
            prior = TrackState(mean=rng.normal(size=4), cov=P)
            out = kf_update(prior, _cm(rng.normal(size=4), R))
            expected = np.linalg.inv(np.linalg.inv(P) + np.linalg.inv(R))
            np.testing.assert_allclose(out.cov, expected, rtol=1e-10)

    def test_singular_innovation_rejected(self):
        prior = TrackState(mean=np.zeros(4), cov=np.zeros((4, 4)))
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular innovation covariance"):
            kf_update(prior, _cm(np.ones(4), np.zeros((4, 4))))

    def test_joseph_form_symmetry_chained(self):
        rng = np.random.default_rng(4)
        track = TrackState(mean=np.zeros(4), cov=100.0 * np.eye(4))
        gam = process_noise_cov(1.0, 0.5)
        for _ in range(1000):
            track = kf_predict(track, 1.0, gam)
            track = kf_update(track, _cm(rng.normal(size=4),
                                         _random_spd(rng, scale=10.0)))
            asym = np.max(np.abs(track.cov - track.cov.T))
            assert asym <= 1e-12
            assert np.min(np.linalg.eigvalsh(track.cov)) >= -1e-12


class TestBayesianChain:
    def test_zero_data_chain_equals_kf_prediction(self):
        # with no measurements, the information recursion is exactly the
        # inverse of covariance prediction
        rng = np.random.default_rng(5)
        F = transition_matrix(2.0)
        gam = process_noise_cov(2.0, 1.0)
        B = _random_spd(rng, scale=0.01)
        P = np.linalg.inv(B)
        for _ in range(50):
            B = prior_information(B, F, gam)
            P = F @ P @ F.T + gam
            np.testing.assert_allclose(B, np.linalg.inv(P), rtol=1e-9)


def _planned_scales(scenario, schedule, policy, seed=0):
    """info_scale of every interval's allocation under one policy's plan."""
    layout = AllocationLayout.from_scenario(scenario)
    return [info_scale(layout, z) for z in
            plan_allocations(scenario, schedule, policy, seed)[0]]


class TestRunTracking:
    @staticmethod
    @pytest.fixture(scope="class")
    def uniform_scales(scenario, schedule):
        return _planned_scales(scenario, schedule, "uniform")

    def test_seed_determinism(self, scenario, schedule, uniform_scales):
        a = run_tracking(scenario, schedule, [uniform_scales], [[3, 1]])
        b = run_tracking(scenario, schedule, [uniform_scales], [[3, 1]])
        np.testing.assert_array_equal(a.truth, b.truth)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs, b.covs)

    def test_noise_shared_across_allocations(self, scenario, schedule,
                                             uniform_scales):
        # common random numbers: truth does not depend on the allocation
        other = _planned_scales(scenario, schedule, "random", seed=6)
        a = run_tracking(scenario, schedule, [uniform_scales], [[4, 0]])
        b = run_tracking(scenario, schedule, [other], [[4, 0]])
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_batch_equals_single_trials_bitwise(self, scenario, schedule,
                                                uniform_scales):
        # a trial's noise and arithmetic do not depend on its batch
        batch = run_tracking(scenario, schedule, [uniform_scales],
                             [[7, t] for t in range(3)])
        for t in range(3):
            alone = run_tracking(scenario, schedule, [uniform_scales],
                                 [[7, t]])
            assert batch.truth[t].tobytes() == alone.truth[0].tobytes()
            for name in ("means", "covs"):
                assert (getattr(batch, name)[:, t].tobytes()
                        == getattr(alone, name)[:, 0].tobytes()), name

    def test_failure_names_target_interval_and_trial(
            self, scenario, schedule, uniform_scales, monkeypatch):
        monkeypatch.setattr(fusion, "GN_MAX_ITER", 1)
        with pytest.raises(FusionError, match="^fusion failed for plan 0 "
                           "target 0 interval 0 trial 0: no convergence"
                           ) as info:
            run_tracking(scenario, schedule, [uniform_scales],
                         [[7, 0], [7, 1]])
        assert info.value.plan == 0

    @pytest.mark.parametrize("p_n", [1, 3])
    def test_measures_every_row_once(self, scenario, schedule, monkeypatch,
                                     p_n):
        # every row's noise-free value in every trial comes from one measure
        # call, however many plans and fusion calls the run has
        plans = [_planned_scales(scenario, schedule, policy, seed=1)
                 for policy in POLICIES[:p_n]]
        shapes = []

        def counted(state, radar_xy):
            shapes.append(np.shape(state)[:-1])
            return measure(state, radar_xy)
        monkeypatch.setattr(tracker, "measure", counted)
        seeds = [[3, t] for t in range(2)]
        run_tracking(scenario, schedule, plans, seeds)
        assert shapes == [(len(seeds), schedule.bounds[-1])]

    def test_zero_intensity_target_moves_without_noise(self, scenario,
                                                       schedule):
        # target 0's truth is the constant-velocity prediction bit for bit
        # while target 1's is noisy, and plans still batch bitwise
        sc = dataclasses.replace(scenario, targets=[dataclasses.replace(
            scenario.targets[0], process_noise_intensity=0.0),
            *scenario.targets[1:]])
        validate(sc)
        plans = [_planned_scales(sc, schedule, policy, seed=1)
                 for policy in POLICIES]
        seeds = [[5, t] for t in range(3)]
        batch = run_tracking(sc, schedule, plans, seeds)
        F = transition_matrix(sc.grid.interval_length)
        for t in range(len(seeds)):
            for k in range(sc.grid.num_intervals):
                before, after = batch.truth[t, :, k], batch.truth[t, :, k + 1]
                assert after[0].tobytes() == (F @ before[0]).tobytes()
                assert np.all(after[1] != F @ before[1])
        for p, scales in enumerate(plans):
            alone = run_tracking(sc, schedule, [scales], seeds)
            assert batch.truth.tobytes() == alone.truth.tobytes()
            for name in ("means", "covs"):
                assert (getattr(batch, name)[p].tobytes()
                        == getattr(alone, name)[0].tobytes()), (p, name)

    @pytest.mark.parametrize("net", ["default", "large_net"])
    def test_plan_batch_equals_single_plans_bitwise(self, scenario, schedule,
                                                    net):
        # a plan's noise and arithmetic do not depend on the other plans,
        # whether they share its fusion call or not
        if net == "large_net":
            scenario = large_net(0)
            schedule = build_schedule(scenario)
        plans = [_planned_scales(scenario, schedule, policy, seed=1)
                 for policy in POLICIES]
        seeds = [[1, t] for t in range(3)]
        kept = [{mask.tobytes() for mask in
                 np.array(plans)[:, k, block(schedule, q, k)[0].radar, q] > 0}
                for k in range(scenario.grid.num_intervals)
                for q in range(scenario.n_targets)]
        assert any(len(masks) > 1 for masks in kept)       # dropped rows
        assert any(len(masks) < len(plans) for masks in kept)  # shared rows
        batch = run_tracking(scenario, schedule, plans, seeds)
        for p, scales in enumerate(plans):
            alone = run_tracking(scenario, schedule, [scales], seeds)
            assert batch.truth.tobytes() == alone.truth.tobytes()
            for name in ("means", "covs"):
                assert (getattr(batch, name)[p].tobytes()
                        == getattr(alone, name)[0].tobytes()), (p, name)

    @pytest.mark.parametrize("max_iter, factor, where", [
        (1, 1.0, "plan 0 target 0 interval 0 trial 0"),
        # the noisier plan 1 is the first to need 7 steps, in a fusion call
        # it shares with plan 0
        (7, 1e-2, "plan 1 target 0 interval 1 trial 1")])
    def test_failure_names_plan_target_interval_and_trial(
            self, scenario, schedule, uniform_scales, monkeypatch, max_iter,
            factor, where):
        monkeypatch.setattr(fusion, "GN_MAX_ITER", max_iter)
        scales = np.array(uniform_scales)
        # the whole message: the plan and the trial name the batch member
        with pytest.raises(FusionError, match=rf"^fusion failed for {where}: "
                           rf"no convergence in {max_iter} iterations "
                           r"\(last step [0-9.e+-]+\)$") as info:
            run_tracking(scenario, schedule, [scales, factor * scales],
                         [[7, 0], [7, 1]])
        assert info.value.plan == int(where.split()[1])

    def test_lone_radar_plan_raises_rank_deficiency_naming_it(self, scenario):
        # with the MSR looking at each target once an interval, a plan that
        # leaves it alone on target 1 stacks a single row there
        msr = kind_indices(scenario, RadarKind.MSR)[0]
        radars = list(scenario.radars)
        radars[msr] = dataclasses.replace(
            radars[msr], revisit_interval=np.full(
                scenario.n_targets, scenario.grid.interval_length))
        sc = dataclasses.replace(scenario, radars=radars)
        validate(sc)
        sch = build_schedule(sc)
        assert np.all(sch.counts[msr] == 1)
        uniform = np.array(_planned_scales(sc, sch, "uniform"))
        lone = np.zeros_like(uniform)
        lone[:, :, 0] = uniform[:, :, 0]
        lone[:, msr, 1] = uniform[:, msr, 1]
        with pytest.raises(RankDeficiencyError, match="plan 1 target 1 "
                           "interval 0 trial 0: 2 equations cannot "
                           "determine 4 state components$") as info:
            run_tracking(sc, sch, [uniform, lone], [[7, 0], [7, 1]])
        assert info.value.plan == 1

    def test_member_without_rows_keeps_its_prediction(self, scenario):
        # every radar first looks at target 1 one interval later, so no
        # member keeps a row of it in interval 0: its track there is the
        # prediction of the initial track, as in planning, under every plan
        later = np.array([0.0, scenario.grid.interval_length])
        sc = dataclasses.replace(scenario, radars=[dataclasses.replace(
            r, initial_time=r.initial_time + later) for r in scenario.radars])
        validate(sc)
        sch = build_schedule(sc)
        assert not sch.counts[:, 1, 0].any() and sch.counts[:, 0, 0].any()
        plans = [_planned_scales(sc, sch, policy, seed=1)
                 for policy in POLICIES]
        seeds = [[1, t] for t in range(3)]
        batch = run_tracking(sc, sch, plans, seeds)
        gammas = process_noise_cov(sc.grid.interval_length,
                                   [t.process_noise_intensity
                                    for t in sc.targets])
        predicted = kf_predict(TrackState(
            mean=sc.targets[1].initial_state + INIT_MEAN_OFFSET,
            cov=np.diag(INIT_COV_DIAG)), sc.grid.interval_length, gammas[1])
        for p, scales in enumerate(plans):
            for t in range(len(seeds)):
                assert (batch.means[p, t, 1, 0].tobytes()
                        == predicted.mean.tobytes()), (p, t)
                assert (batch.covs[p, t, 1, 0].tobytes()
                        == predicted.cov.tobytes()), (p, t)
            alone = run_tracking(sc, sch, [scales], seeds)
            for name in ("means", "covs"):
                assert (getattr(batch, name)[p].tobytes()
                        == getattr(alone, name)[0].tobytes()), (p, name)

    def test_shapes_and_metadata(self, scenario, schedule, uniform_scales):
        # batches of one and two plans; one plan needs the plan axis too
        q_n, k_n = scenario.n_targets, scenario.grid.num_intervals
        for p_n in (1, 2):
            run = run_tracking(scenario, schedule, [uniform_scales] * p_n,
                               [0, 1])
            assert run.truth.shape == (2, q_n, k_n + 1, 4)
            assert run.means.shape == (p_n, 2, q_n, k_n, 4)
            assert run.covs.shape == (p_n, 2, q_n, k_n, 4, 4)
        with pytest.raises(ValueError, match="scales must be"):
            run_tracking(scenario, schedule, uniform_scales, [0, 1])

    def test_error_shrinks_from_initialization(self, scenario, schedule,
                                               uniform_scales):
        run = run_tracking(scenario, schedule, [uniform_scales], [[5, 0]])
        init_err = np.linalg.norm(INIT_MEAN_OFFSET[[0, 2]])
        for q in range(scenario.n_targets):
            final_err = np.linalg.norm(run.means[0, 0, q, -1, [0, 2]]
                                       - run.truth[0, q, -1, [0, 2]])
            assert final_err < init_err


def _uneven_rows(scenario):
    """The scenario with its last PAR revisiting target 1 at 1.5 times its
    interval, so target 1 keeps fewer rows than target 0 in every
    interval."""
    radars = list(scenario.radars)
    par = kind_indices(scenario, RadarKind.PAR)[-1]
    radars[par] = dataclasses.replace(radars[par], revisit_interval=(
        radars[par].revisit_interval * np.array([1.0, 1.5])))
    sc = dataclasses.replace(scenario, radars=radars)
    validate(sc)
    return sc


def _per_target_oracle(scenario, schedule, plans, seeds):
    """run_tracking one (plan, target, interval) at a time, batched over
    the trials only: per trial the process and measurement draws of the
    two child streams of its seed, in (interval, target) order, then
    kf_predict, _noise_free of its rows from the interval-start truth,
    _stack_interval, ils_mle and kf_update on a batch of one member."""
    grid = scenario.grid
    q_n, k_n, t_n = scenario.n_targets, grid.num_intervals, len(seeds)
    F = transition_matrix(grid.interval_length)
    bounds = schedule.bounds
    proc, meas = [], []
    for seed in seeds:
        proc_rng, meas_rng = [np.random.default_rng(c) for c in
                              np.random.SeedSequence(seed).spawn(2)]
        proc.append(proc_rng.standard_normal((k_n, q_n, 4)))
        meas.append(meas_rng.standard_normal((bounds[-1], 2)))
    proc, meas = np.array(proc), np.array(meas)
    truth = np.zeros((t_n, q_n, k_n + 1, 4))
    means = np.zeros((len(plans), t_n, q_n, k_n, 4))
    covs = np.zeros((len(plans), t_n, q_n, k_n, 4, 4))
    for q, tgt in enumerate(scenario.targets):
        gamma = process_noise_cov(grid.interval_length,
                                  tgt.process_noise_intensity)
        chol = np.linalg.cholesky(gamma)
        truth[:, q, 0] = tgt.initial_state
        for t in range(t_n):
            for k in range(k_n):
                truth[t, q, k + 1] = F @ truth[t, q, k] + chol @ proc[t, k, q]
        for p, scales in enumerate(plans):
            track = TrackState(
                mean=np.tile(tgt.initial_state + INIT_MEAN_OFFSET,
                             (1, t_n, 1)),
                cov=np.tile(np.diag(INIT_COV_DIAG), (1, t_n, 1, 1)))
            for k in range(k_n):
                t_k, t_fuse = grid.boundary(k)
                rows = block(schedule, q, k)[0]
                b = k * q_n + q
                track = kf_predict(track, grid.interval_length, gamma)
                clean = _noise_free(rows, truth[:, q, k, None], t_k)
                stack = _stack_interval(
                    rows, scales[k][rows.radar, q][None], clean,
                    meas[:, bounds[b]:bounds[b + 1]], t_fuse)
                track = kf_update(track, ils_mle(stack, track.mean))
                means[p, :, q, k] = track.mean[0]
                covs[p, :, q, k] = track.cov[0]
    return truth, means, covs


class TestLengthGroupedFusion:
    def test_matches_per_target_oracle_bytewise(self, scenario):
        # target 1 keeps fewer rows than target 0 under the uniform plan;
        # the third plan zeroes radar 0 on target 0 and radar 3 on target 1,
        # so its two targets keep the same number of rows and share a call
        sc = _uneven_rows(scenario)
        sch = build_schedule(sc)
        uniform = np.array(_planned_scales(sc, sch, "uniform"))
        cut = uniform.copy()
        cut[:, 0, 0] = cut[:, 3, 1] = 0.0
        plans = [uniform, np.array(_planned_scales(sc, sch, "random", 1)),
                 cut]
        kept = np.array([[[np.count_nonzero(
            plan[k, block(sch, q, k)[0].radar, q])
            for q in range(sc.n_targets)]
            for k in range(sc.grid.num_intervals)] for plan in plans])
        assert np.all(kept[0, :, 0] > kept[0, :, 1])
        assert np.all(kept[2, :, 0] == kept[2, :, 1])
        seeds = [[2, t] for t in range(3)]
        run = run_tracking(sc, sch, plans, seeds)
        truth, means, covs = _per_target_oracle(sc, sch, plans, seeds)
        assert run.truth.tobytes() == truth.tobytes()
        assert run.means.tobytes() == means.tobytes()
        assert run.covs.tobytes() == covs.tobytes()


def _oracle_stack(scenario, schedule, z, q, k, truth_k, draws):
    """The interval's stacked rows built one measurement at a time:
    transition_matrix(t - t_k) @ truth_k, then scalar measure."""
    layout = AllocationLayout.from_scenario(scenario)
    scale = info_scale(layout, z)[:, q]
    t_k, _ = scenario.grid.boundary(k)
    vals, times, rxy, cdiag = [], [], [], []
    pos = 0
    for i, radar in enumerate(scenario.radars):
        kern = const_kernel(radar, scenario.targets[q].rcs[i])
        cov = kern / scale[i] if scale[i] > 0 else None
        for t in radar_times(schedule, i, q, k):
            d = draws[pos]
            pos += 1
            if cov is None:
                continue
            r, th = measure(transition_matrix(t - t_k) @ truth_k,
                            radar.position)
            sd = np.sqrt(cov)
            vals.append([r + sd[0] * d[0], th + sd[1] * d[1]])
            times.append(t)
            rxy.append(radar.position)
            cdiag.append(cov)
    assert pos == len(draws)
    return {"values": np.array(vals, dtype=float).reshape(-1, 2),
            "times": np.array(times, dtype=float),
            "radar_xy": np.array(rxy, dtype=float).reshape(-1, 2),
            "cov_diag": np.array(cdiag, dtype=float).reshape(-1, 2)}


class TestStackInterval:
    @staticmethod
    def _check_all_intervals(scenario, schedule, zero_radar=None):
        layout = AllocationLayout.from_scenario(scenario)
        rng = np.random.default_rng(8)
        uniform = plan_allocations(scenario, schedule, "uniform")[0]
        for k, z in enumerate(uniform):
            if zero_radar is not None:
                z[layout.var[zero_radar]] = 0.0
            scale = info_scale(layout, z)
            t_k, t_fuse = scenario.grid.boundary(k)
            for q, tgt in enumerate(scenario.targets):
                truth_k = (transition_matrix(t_k - scenario.grid.start_time)
                           @ tgt.initial_state + rng.normal(size=4))
                draws = rng.standard_normal((schedule.counts[:, q, k].sum(), 2))
                rows = block(schedule, q, k)[0]
                got = stack_alone(rows, scale[rows.radar, q], truth_k, t_k,
                                  t_fuse, draws)
                want = _oracle_stack(scenario, schedule, z, q, k, truth_k,
                                     draws)
                assert got.t_fuse == t_fuse
                if zero_radar is not None:
                    assert not np.any(np.all(
                        got.radar_xy
                        == scenario.radars[zero_radar].position, axis=-1))
                for name, expected in want.items():
                    actual = getattr(got, name)
                    assert actual.dtype == expected.dtype, name
                    assert actual.shape == expected.shape, name
                    assert actual.tobytes() == expected.tobytes(), name

    def test_matches_per_row_oracle_bitwise(self, scenario, schedule):
        self._check_all_intervals(scenario, schedule)

    def test_zero_energy_radar_matches_oracle_bitwise(self, scenario,
                                                      schedule):
        self._check_all_intervals(scenario, schedule,
                                  zero_radar=AllocationLayout.from_scenario(
                                      scenario).mmr[0])

    def test_target_on_radar_rejected(self, scenario, schedule):
        layout = AllocationLayout.from_scenario(scenario)
        scale = info_scale(
            layout, plan_allocations(scenario, schedule, "uniform")[0][0])
        t_k, t_fuse = scenario.grid.boundary(0)
        rows = block(schedule, 0, 0)[0]
        x, y = scenario.radars[rows.radar[-1]].position
        draws = np.zeros((len(rows.times), 2))
        with pytest.raises(ValueError, match="coincides"):
            stack_alone(rows, scale[rows.radar, 0],
                        np.array([x, 0.0, y, 0.0]), t_k, t_fuse, draws)
