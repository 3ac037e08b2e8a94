"""Maximin resource allocation: objective, constraints, inner update,
fractional rewrite, projection, baselines, and the alternating solver."""

import numpy as np
import pytest

from hrcn.allocator import (AllocationLayout, AllocatorConfig, PlanningPrior,
                            adam_solve, assemble_constraints,
                            assemble_fractional, baseline_random,
                            baseline_uniform, bayesian_B, compute_kernels,
                            f_value, grad_f, inner_v_update,
                            interference_denominators, lambda_diag,
                            objective_g, project, throughput_r)
from hrcn.fusion import prior_information
from hrcn.kinematics import process_noise_cov, transition_matrix
from hrcn.scenario import build_schedule

from conftest import make_mini_scenario


@pytest.fixture(scope="module")
def layout(scenario):
    return AllocationLayout.from_scenario(scenario)


@pytest.fixture(scope="module")
def priors(scenario):
    """Planning priors for interval 0: predicted initial state, loose info."""
    F = transition_matrix(scenario.grid.interval_length)
    out = []
    for tgt in scenario.targets:
        info0 = np.linalg.inv(np.diag([100.0, 10.0, 100.0, 10.0]) ** 2)
        gam = process_noise_cov(scenario.grid.interval_length,
                                tgt.process_noise_intensity)
        out.append(PlanningPrior(state=F @ tgt.initial_state,
                                 info=prior_information(info0, F, gam, 1e-9)))
    return out


@pytest.fixture(scope="module")
def kernels(scenario, schedule, priors):
    return compute_kernels(scenario, schedule, 0, [p.state for p in priors])


def random_feasible_z(scenario, schedule, rng, k=0):
    return baseline_random(scenario, schedule, k, rng)


class TestLayout:
    def test_dimension(self, scenario, layout):
        assert layout.dim == (3 + 2) * 2 + 3 == 13

    def test_index_blocks_disjoint_and_complete(self, scenario, layout):
        idx = ([layout.var[i, q] for i in layout.mmr for q in range(2)]
               + [layout.var[i, q] for i in layout.par for q in range(2)]
               + [layout.n_radar_vars + j for j in range(3)])
        assert sorted(idx) == list(range(layout.dim))
        assert np.all(layout.var[scenario.msr_indices] == -1)

    def test_energies_match_per_kind_formula(self, scenario, layout):
        z = np.random.default_rng(1).uniform(0.5, 2.0, layout.dim)
        E = layout.energies(z)
        assert scenario.mmr_indices and scenario.par_indices
        assert scenario.msr_indices
        for i, node in enumerate(scenario.radars):
            for q in range(scenario.n_targets):
                if i in scenario.mmr_indices:
                    assert E[i, q] == z[layout.var[i, q]] * node.fixed_dwell
                elif i in scenario.par_indices:
                    assert E[i, q] == node.fixed_power * z[layout.var[i, q]]
                else:
                    assert E[i, q] == node.fixed_power * node.fixed_dwell


class TestObjectiveG:
    def test_identity_trace_case(self, scenario, schedule, layout):
        # B^q chosen so Lambda B^{-1} Lambda = I: each target contributes 1/4
        t0 = scenario.grid.interval_length
        prior = np.diag(lambda_diag(t0) ** 2)
        zeros = np.zeros((scenario.n_targets, scenario.n_radars, 4, 4))
        z = baseline_uniform(scenario, schedule, 0)
        g = objective_g(z, zeros, [prior, prior], scenario, layout)
        assert g == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_radar_resources(self, scenario, schedule, layout,
                                         kernels, priors):
        z = baseline_uniform(scenario, schedule, 0)
        prior_infos = [p.info for p in priors]
        g1 = objective_g(z, kernels, prior_infos, scenario, layout)
        z2 = z.copy()
        z2[:layout.n_radar_vars] *= 1.5
        g2 = objective_g(z2, kernels, prior_infos, scenario, layout)
        assert g2 > g1


def random_psd_kernels(rng, q_n, n):
    W = rng.normal(size=(q_n, n, 4, 2))
    return W @ np.swapaxes(W, -1, -2)


class TestBayesianB:
    PRIOR = np.diag([1e-2, 1e-1, 1e-2, 1e-1])

    def test_zero_radar_resources_gives_prior(self):
        sc = make_mini_scenario()
        lay = AllocationLayout.from_scenario(sc)
        z = np.zeros(lay.dim)
        z[lay.n_radar_vars] = 5.0
        kern = random_psd_kernels(np.random.default_rng(4), 1, 1)
        (B,) = bayesian_B(z, kern, [self.PRIOR], sc, lay)
        np.testing.assert_array_equal(B, self.PRIOR)

    def test_additive_over_radars(self, scenario, layout):
        # B^q = prior + sum_i P_i T_i / (alpha_c_i . P_c + sigma_i^2) D_i,
        # with P_i T_i substituted by hand for each radar kind
        rng = np.random.default_rng(5)
        kern = random_psd_kernels(rng, scenario.n_targets, scenario.n_radars)
        z = rng.uniform(0.5, 2.0, layout.dim)
        # documented block order: MMR powers, PAR dwells (radar-major,
        # target-minor), then the downlink powers
        mmr, par, q_n = scenario.mmr_indices, scenario.par_indices, 2
        pc = z[(len(mmr) + len(par)) * q_n:]
        priors = [self.PRIOR] * 2
        for q, B in enumerate(bayesian_B(z, kern, priors, scenario, layout)):
            expected = self.PRIOR.copy()
            for i, node in enumerate(scenario.radars):
                if i in mmr:
                    pt = z[mmr.index(i) * q_n + q] * node.fixed_dwell
                elif i in par:
                    pt = node.fixed_power * z[(len(mmr) + par.index(i)) * q_n + q]
                else:
                    pt = node.fixed_power * node.fixed_dwell
                denom = scenario.comm.alpha_c_sq[i] @ pc + node.noise_var
                expected += pt / denom * kern[q, i]
            np.testing.assert_allclose(B, expected, rtol=1e-12)

    def test_scalar_toy_case(self):
        # P T = 1 * 0.5 and no comm power (denominator 1): scale 0.5
        sc = make_mini_scenario(fixed_dwell=0.5)
        lay = AllocationLayout.from_scenario(sc)
        z = np.zeros(lay.dim)
        z[lay.var[0, 0]] = 1.0
        D = np.diag([3.0, 0.0, 3.0, 0.0])[None, None]
        (B,) = bayesian_B(z, D, [2.0 * np.eye(4)], sc, lay)
        np.testing.assert_allclose(np.diag(B), [3.5, 2.0, 3.5, 2.0])

    def test_loewner_monotone_in_radar_resources(self, scenario, layout):
        rng = np.random.default_rng(6)
        kern = random_psd_kernels(rng, scenario.n_targets, scenario.n_radars)
        z = rng.uniform(0.5, 2.0, layout.dim)
        z2 = z.copy()
        z2[:layout.n_radar_vars] *= 1.5
        priors = [self.PRIOR] * 2
        for B1, B2 in zip(bayesian_B(z, kern, priors, scenario, layout),
                          bayesian_B(z2, kern, priors, scenario, layout)):
            assert np.min(np.linalg.eigvalsh(B2 - B1)) >= -1e-10

    def test_psd_across_chained_intervals(self):
        sc = make_mini_scenario(fixed_dwell=0.5)
        lay = AllocationLayout.from_scenario(sc)
        t0 = sc.grid.interval_length
        F = transition_matrix(t0)
        gamma = process_noise_cov(t0, 1.0)
        rng = np.random.default_rng(7)
        B = self.PRIOR.copy()
        for _ in range(20):
            z = rng.uniform(0.0, 2.0, lay.dim)
            (B,) = bayesian_B(z, random_psd_kernels(rng, 1, 1),
                              [prior_information(B, F, gamma)], sc, lay)
            np.testing.assert_allclose(B, B.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(B)) >= -1e-12


class TestThroughput:
    def test_zero_comm_power(self, scenario, schedule, layout):
        z = baseline_uniform(scenario, schedule, 0)
        z[layout.n_radar_vars:] = 0.0
        assert throughput_r(0, z, scenario, layout,
                            schedule.counts[:, :, 0]) == 0.0

    def test_unit_sinr(self):
        sc = make_mini_scenario(t0=1.0, initial_time=10.0, comm_noise_var=0.1)
        sch = build_schedule(sc)  # no radar measurements
        lay = AllocationLayout.from_scenario(sc)
        z = np.zeros(lay.dim)
        z[lay.n_radar_vars] = 0.1  # P_c T0 / (sigma_c^2 T0) = 1
        assert throughput_r(0, z, sc, lay,
                            sch.counts[:, :, 0]) == pytest.approx(np.log(2.0))

    def test_hand_value_one_radar(self):
        # M=2, |alpha^r|^2 = 0.5, P*T = 4, sigma_c^2 T0 = 1, P_c T0 = 8
        sc = make_mini_scenario(t0=1.0, initial_time=0.5, revisit=0.5,
                                fixed_dwell=2.0, comm_noise_var=1.0,
                                radar_to_comm=np.sqrt(0.5))
        sch = build_schedule(sc)
        assert sch.counts[0, 0, 0] == 2
        lay = AllocationLayout.from_scenario(sc)
        z = np.zeros(lay.dim)
        z[lay.var[0, 0]] = 2.0   # P*T = 2 * fixed_dwell = 4
        z[lay.n_radar_vars] = 8.0
        expected = np.log(1 + 8.0 / (2 * 0.5 * 4 + 1))
        assert throughput_r(0, z, sc, lay,
                            sch.counts[:, :, 0]) == pytest.approx(expected)


class TestAssembleConstraints:
    def test_row_count(self, scenario, schedule):
        A, b, labels = assemble_constraints(scenario, schedule, 0)
        assert A.shape == (3 + 3 + 2 + 1, 13)
        assert len(b) == len(labels) == 9

    def test_throughput_row_matches_nonlinear_floor(self, scenario, schedule,
                                                    layout):
        # where a throughput row holds with equality, the achieved throughput
        # equals the floor exactly
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        counts = schedule.counts[:, :, 0]
        z = baseline_uniform(scenario, schedule, 0)
        t0 = scenario.grid.interval_length
        for j in range(scenario.comm.num_links):
            zz = z.copy()
            # solve the row for the comm power that makes it tight
            a = A[j].copy()
            cj = layout.n_radar_vars + j
            coeff = a[cj]
            a[cj] = 0.0
            zz[cj] = (b[j] - a @ zz) / coeff
            r = throughput_r(j, zz, scenario, layout, counts)
            assert r == pytest.approx(scenario.comm.floor(j, 0), abs=1e-10)

    def test_budget_rows_weighted_by_counts(self, scenario, schedule, layout):
        A, b, labels = assemble_constraints(scenario, schedule, 0)
        counts = schedule.counts[:, :, 0]
        for row, i in enumerate(layout.mmr, start=scenario.comm.num_links):
            assert b[row] == scenario.radars[i].power_budget
            for q in range(scenario.n_targets):
                assert A[row, layout.var[i, q]] == counts[i, q]

    def test_bs_budget_row(self, scenario, schedule, layout):
        A, b, labels = assemble_constraints(scenario, schedule, 0)
        assert labels[-1] == "bs_power_budget"
        assert b[-1] == scenario.comm.power_budget
        np.testing.assert_array_equal(A[-1, layout.n_radar_vars:], 1.0)


class TestInnerVUpdate:
    def test_isotropic_case(self):
        V = inner_v_update(np.eye(4), np.ones(4))
        np.testing.assert_allclose(V, np.eye(4) / 4.0, rtol=1e-14)

    def test_trace_one_and_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            W = rng.normal(size=(4, 4))
            M = W @ W.T + 0.1 * np.eye(4)
            V = inner_v_update(M, np.ones(4))
            assert np.trace(V) == pytest.approx(1.0, rel=1e-12)
            attained = np.trace(V.T @ M @ V)
            assert attained == pytest.approx(1.0 / np.trace(np.linalg.inv(M)),
                                             rel=1e-10)

    def test_descent_step_never_increases_inner_objective(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            W = rng.normal(size=(4, 4))
            M = W @ W.T + 0.1 * np.eye(4)
            V_old = rng.normal(size=(4, 4))
            V_old /= np.trace(V_old)
            V = inner_v_update(M, np.ones(4))
            assert (np.trace(V.T @ M @ V)
                    <= np.trace(V_old.T @ M @ V_old) + 1e-12)


class TestFractionalProgram:
    def test_zero_slack_gives_constant_objective(self, scenario, layout,
                                                 kernels, priors):
        v0 = [np.zeros((4, 4)) for _ in range(scenario.n_targets)]
        fp = assemble_fractional(v0, kernels, [p.info for p in priors],
                                 scenario, layout)
        np.testing.assert_array_equal(fp.c, 0.0)
        np.testing.assert_array_equal(fp.d, 0.0)
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 10, layout.dim)
        assert f_value(fp, z) == pytest.approx(fp.constant)

    def test_matches_direct_inner_objective(self, scenario, schedule, layout,
                                            kernels, priors):
        # for any trace-1 V, the fractional rewrite equals the direct
        # evaluation sum_q Tr(V^T Lambda^-1 B(z) Lambda^-1 V)
        rng = np.random.default_rng(3)
        lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
        prior_infos = [p.info for p in priors]
        for _ in range(20):
            v_mats = []
            for _ in range(scenario.n_targets):
                W = rng.normal(size=(4, 4))
                W = W @ W.T + 0.1 * np.eye(4)
                v_mats.append(W / np.trace(W))
            fp = assemble_fractional(v_mats, kernels, prior_infos, scenario,
                                     layout)
            z = random_feasible_z(scenario, schedule, rng)
            direct = 0.0
            for q, B in enumerate(bayesian_B(z, kernels, prior_infos,
                                             scenario, layout)):
                lv = lam_inv[:, None] * v_mats[q]
                direct += np.trace(lv.T @ B @ lv)
            assert f_value(fp, z) == pytest.approx(direct, rel=1e-10)

    def test_gradient_matches_finite_differences(self, scenario, schedule,
                                                 layout, kernels, priors):
        rng = np.random.default_rng(4)
        lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
        prior_infos = [p.info for p in priors]
        z = random_feasible_z(scenario, schedule, rng)
        b_mats = bayesian_B(z, kernels, prior_infos, scenario, layout)
        v_mats = [inner_v_update(B, lam_inv) for B in b_mats]
        fp = assemble_fractional(v_mats, kernels, prior_infos, scenario,
                                 layout)
        g = grad_f(fp, z)
        for idx in range(layout.dim):
            h = 1e-5 * max(1.0, abs(z[idx]))
            hi, lo = z.copy(), z.copy()
            hi[idx] += h
            lo[idx] -= h
            num = (f_value(fp, hi) - f_value(fp, lo)) / (2 * h)
            assert g[idx] == pytest.approx(num, rel=1e-6, abs=1e-12)


class TestProject:
    def test_feasible_input_unchanged(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        res = project(np.array([0.3, 0.3]), A, b)
        np.testing.assert_array_equal(res.z, [0.3, 0.3])
        assert res.active == []

    def test_halfspace_projection(self):
        res = project(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                      np.array([1.0]))
        np.testing.assert_allclose(res.z, [0.5, 0.5], atol=1e-12)

    def test_negative_point_clipped(self):
        res = project(np.array([-1.0, 2.0]), np.array([[1.0, 1.0]]),
                      np.array([10.0]))
        np.testing.assert_allclose(res.z, [0.0, 2.0], atol=1e-12)

    def test_variational_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = rng.integers(2, 5)
            A = rng.normal(size=(3, dim))
            z_int = rng.uniform(0, 1, dim)
            b = A @ z_int + rng.uniform(0.1, 1.0, 3)
            z_raw = rng.normal(0, 3, dim)
            z_star = project(z_raw, A, b).z
            for _ in range(20):
                z_f = project(rng.normal(0, 3, dim), A, b).z
                assert (z_raw - z_star) @ (z_f - z_star) <= 1e-8

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dim = rng.integers(2, 6)
            A = rng.normal(size=(3, dim))
            b = A @ rng.uniform(0, 1, dim) + rng.uniform(0.1, 1.0, 3)
            z1 = project(rng.normal(0, 3, dim), A, b).z
            z2 = project(z1, A, b).z
            np.testing.assert_allclose(z2, z1, atol=1e-9)

    def test_infeasible_certified(self):
        from hrcn.allocator import InfeasibleError
        # x <= -1 with x >= 0 is empty
        with pytest.raises(InfeasibleError, match="empty polyhedron"):
            project(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


class TestBaselines:
    def test_uniform_splits(self, scenario, schedule, layout):
        z = baseline_uniform(scenario, schedule, 0)
        counts = schedule.counts[:, :, 0]
        for i in layout.mmr:
            expected = scenario.radars[i].power_budget / counts[i].sum()
            for q in range(scenario.n_targets):
                assert z[layout.var[i, q]] == pytest.approx(expected)
        for i in layout.par:
            expected = scenario.radars[i].time_budget / counts[i].sum()
            for q in range(scenario.n_targets):
                assert z[layout.var[i, q]] == pytest.approx(expected)
        np.testing.assert_allclose(
            z[layout.n_radar_vars:],
            scenario.comm.power_budget / scenario.comm.num_links)

    def test_uniform_empty_schedule_zero_radar_block(self):
        sc = make_mini_scenario(initial_time=100.0)
        sch = build_schedule(sc)
        lay = AllocationLayout.from_scenario(sc)
        z = baseline_uniform(sc, sch, 0)
        np.testing.assert_array_equal(z[:lay.n_radar_vars], 0.0)

    def test_random_deterministic_and_feasible(self, scenario, schedule):
        z1 = baseline_random(scenario, schedule, 0, np.random.default_rng(9))
        z2 = baseline_random(scenario, schedule, 0, np.random.default_rng(9))
        np.testing.assert_array_equal(z1, z2)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        assert np.all(A @ z1 <= b + 1e-9)
        assert np.all(z1 >= 0)

    def test_random_budget_utilization(self, scenario, schedule, layout):
        rng = np.random.default_rng(10)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        row = scenario.comm.num_links  # first MMR power budget
        for _ in range(20):
            z = baseline_random(scenario, schedule, 0, rng)
            used = (A[row] @ z) / b[row]
            assert 0.0 < used <= 1.0 + 1e-9


class TestAdamSolve:
    def test_degenerate_empty_schedule(self):
        sc = make_mini_scenario(initial_time=100.0)
        sch = build_schedule(sc)
        priors = [PlanningPrior(state=sc.targets[0].initial_state,
                                info=np.eye(4) * 1e-3)]
        z, trace = adam_solve(sc, sch, 0, priors)
        assert len(trace) <= 2
        assert np.all(z >= 0)

    def test_single_radar_saturates_budget(self):
        sc = make_mini_scenario(throughput_floor=0.0)
        sch = build_schedule(sc)
        priors = [PlanningPrior(state=sc.targets[0].initial_state,
                                info=np.eye(4) * 1e-4)]
        z, _ = adam_solve(sc, sch, 0, priors)
        counts = sch.counts[:, :, 0]
        used = counts[0, 0] * z[0]
        assert used == pytest.approx(sc.radars[0].power_budget, rel=1e-6)

    def test_beats_uniform_on_default(self, scenario, schedule, priors):
        layout = AllocationLayout.from_scenario(scenario)
        kern = compute_kernels(scenario, schedule, 0,
                               [p.state for p in priors])
        prior_infos = [p.info for p in priors]
        z_opt, trace = adam_solve(scenario, schedule, 0, priors)
        z_uni = baseline_uniform(scenario, schedule, 0)
        g_opt = objective_g(z_opt, kern, prior_infos, scenario, layout, 1e-9)
        g_uni = objective_g(z_uni, kern, prior_infos, scenario, layout, 1e-9)
        assert g_opt >= g_uni
        assert len(trace) >= 1
        assert all(np.isfinite(rec["f"]) for rec in trace)

    def test_iterates_feasible(self, scenario, schedule, priors):
        cfg = AllocatorConfig(max_outer=30)
        z, _ = adam_solve(scenario, schedule, 0, priors, cfg)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        assert np.all(A @ z <= b + 1e-9)
        assert np.all(z >= 0)


class TestInterferenceDenominators:
    def test_hand_value(self, scenario, layout):
        z = np.zeros(layout.dim)
        z[layout.n_radar_vars:] = [1.0, 2.0, 3.0]
        denoms = interference_denominators(scenario, layout, z)
        expected = (scenario.comm.alpha_c_sq @ np.array([1.0, 2.0, 3.0])
                    + np.array([r.noise_var for r in scenario.radars]))
        np.testing.assert_allclose(denoms, expected, rtol=1e-14)
