"""Maximin resource allocation: objective, constraints, inner update,
fractional rewrite, projection, baselines, and the alternating solver."""

import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from hrcn import _kernels, allocator, harness
from hrcn.allocator import (AllocationLayout, InfeasibleError,
                            IntervalProblem, adam_solve, assemble_constraints,
                            assemble_fractional, baseline_random,
                            baseline_uniform, bayesian_B, compute_kernels,
                            crb_metric_and_bound, f_value,
                            grad_f, interference_denominators, lambda_diag,
                            objective_g, project, throughput_r)
from hrcn.fusion import JITTER, inv_psd, prior_information
from hrcn.harness import plan_allocations, planning_chain, planning_horizon
from hrcn.kinematics import process_noise_cov, transition_matrix
from hrcn.scenario import RadarKind, build_schedule

from conftest import (block, floors_the_even_comm_split_misses,
                      inner_v_update, kind_indices, make_mini_scenario)
from test_acceptance import _projection_oracle

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from scenarios import floor_variants, large_net  # noqa: E402

# g of each interval of plan_allocations(default scenario, "optimized") under
# the line search that grew the step while f rose at all, from 5e-2 up to
# 12 doublings; the backtracking on g must not lose more than OBJ_TOL of it
GROWTH_SEARCH_G = [0.004952754526281177, 0.010108736169291161,
                   0.009840758683638302, 0.009469998664426556,
                   0.00912985481980762, 0.008912752184362632,
                   0.008934574778258623, 0.009306424065808297,
                   0.009794588254319937, 0.010365298030823757]

# plan_allocations(default scenario, "optimized") under the solver whose every
# step's first probe was at STEP_SIZE; it reaches GROWTH_SEARCH_G within
# rounding.  Chaining the priors through it fixes each interval's problem,
# whatever plan the solver under test makes for the intervals before
STEP_SIZE_PLAN = np.array([
    [33.3333333333331, 0.0, 50.0, 0.0, 49.99999999999982, 0.0, 0.0, 0.06,
     0.06000000000000042, 0.0, 0.6474669450656734, 0.6461358917118787,
     0.647807694723781],
    [33.333333333333336, 0.0, 17.829328707172763, 15.504004626160691,
     33.333333333333215, 0.0, 0.0, 0.06000000000000085, 0.04000000000000057,
     0.0, 0.6475947261876058, 0.6464233992360846, 0.6483188192123635],
    [33.33333333333346, 0.0, 25.088106389193857, 8.245226944139361,
     14.483889781582706, 18.84944355175122, 0.0, 0.05999999999999829, 0.04,
     0.0, 0.6475947261870374, 0.6464233992355162, 0.6483188192123635],
    [33.333333333333336, 0.0, 33.333333333333336, 0.0, 0.0,
     33.333333333333215, 0.0, 0.060000000000001275, 0.04, 0.0,
     0.6475947261876058, 0.6464233992363688, 0.6483188192115108],
    [9.337349114528001, 23.995984218805333, 21.512361755651455,
     11.820971577681524, 0.0, 33.333333333333336, 0.0, 0.06000000000000042,
     0.04000000000000057, 0.0, 0.6475947261876058, 0.6464233992363688,
     0.6483188192123635],
    [0.0, 33.333333333333364, 33.33333333333332, 0.0, 0.0, 33.33333333333332,
     0.010604246627604876, 0.04939575337239518, 0.04, 0.0, 0.6475947261875348,
     0.6464233992361912, 0.6483188192121503],
    [0.0, 33.33333333333332, 33.333333333333336, 0.0, 0.0,
     33.333333333333336, 0.03689110781566678, 0.023108892184333117, 0.0,
     0.04000000000000007, 0.6475947261876414, 0.6464233992361201,
     0.6483188192121503],
    [0.0, 33.333333333333336, 33.33333333333335, 0.0, 0.0, 33.33333333333335,
     0.05845751642703824, 0.0015424835729618103, 0.0, 0.04,
     0.6475947261875703, 0.6464233992361912, 0.6483188192121503],
    [0.0, 33.3333333333331, 33.333333333333336, 0.0, 0.0, 33.333333333333215,
     0.06000000000000042, 0.0, 0.0, 0.040000000000000285, 0.6475947261876058,
     0.6464233992358004, 0.6483188192123635],
    [0.0, 33.333333333333336, 33.33333333333346, 0.0, 0.0,
     33.333333333333336, 0.059999999999999575, 0.0, 0.0, 0.04,
     0.6475947261873216, 0.6464233992358004, 0.6483188192123635]])


@pytest.fixture(scope="module")
def layout(scenario):
    return AllocationLayout.from_scenario(scenario)


@pytest.fixture(scope="module")
def problem(scenario, schedule, layout):
    """Interval 0's problem: predicted initial states, loose prior info, and
    the kernels at the predicted states."""
    F = transition_matrix(scenario.grid.interval_length)
    states = [F @ tgt.initial_state for tgt in scenario.targets]
    info0 = np.linalg.inv(np.diag([100.0, 10.0, 100.0, 10.0]) ** 2)
    infos = [prior_information(info0, F,
                               process_noise_cov(scenario.grid.interval_length,
                                                 tgt.process_noise_intensity))
             for tgt in scenario.targets]
    return IntervalProblem.build(scenario, schedule, 0, layout,
                                 compute_kernels(scenario, schedule, [states])[0],
                                 infos)


def mini_problem(sc, sch, kernels=None, infos=None):
    """Interval 0's problem of a one-target scenario: the given kernels and
    prior informations, by default the kernels at the initial state and a
    loose prior."""
    if kernels is None:
        kernels = compute_kernels(sc, sch, [[sc.targets[0].initial_state]])[0]
    if infos is None:
        infos = [np.eye(4) * 1e-4]
    return IntervalProblem.build(sc, sch, 0, AllocationLayout.from_scenario(sc),
                                 kernels, infos)


def record_polishes(monkeypatch) -> list:
    """Route allocator._polish through a recorder; returns the list, filled
    in call order, of the faces polished, each as its rows of [A; -I]."""
    faces, polish = [], allocator._polish

    def recorded(z_raw, face, A, b):
        faces.append(tuple(face.on_a.tolist()
                           + (face.zero + A.shape[0]).tolist()))
        return polish(z_raw, face, A, b)

    monkeypatch.setattr(allocator, "_polish", recorded)
    return faces


def full_stacked_polish(z_raw, A, b, rows):
    """Reference polish on the stacked rows [A; -I]: the whole Gram system of
    the sorted rows solved by lstsq.  Returns (z with its bounded coordinates
    set to exactly 0, the multipliers of rows, G z - h before the zeroing,
    and the bound of the warm KKT certificate)."""
    dim = z_raw.size
    G = np.vstack([A, -np.eye(dim)])
    h = np.concatenate([b, np.zeros(dim)])
    bound = 1e-9 * max(1.0, np.abs(G @ z_raw - h).max())
    Gs = G[rows]
    mult, *_ = np.linalg.lstsq(Gs @ Gs.T, Gs @ z_raw - h[rows], rcond=None)
    z = z_raw - Gs.T @ mult
    slack = G @ z - h
    z[rows[rows >= A.shape[0]] - A.shape[0]] = 0.0
    return z, mult, slack, bound


def recorded_solves(scenario, schedule) -> list[dict]:
    """Every interval's solve in plan_allocations(..., "optimized"): its
    problem, plan, trace, planned g and g as a function of the plan."""
    solves = []

    def recording(problem):
        z, trace = adam_solve(problem)
        solves.append({"k": problem.k, "problem": problem, "z": z,
                       "trace": trace,
                       "g_of": lambda zz: objective_g(zz, problem)})
        return z, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "adam_solve", recording)
        _, g_values, *_ = plan_allocations(scenario, schedule, "optimized")
    for solve, g in zip(solves, g_values, strict=True):
        solve["g_plan"] = g
        # the solver's start point: the even split, feasible on these inputs
        solve["g_start"] = solve["g_of"](solve["problem"].precond)
    return solves


def second_step_first_probe(problem, monkeypatch, scale) -> float:
    """Length of the first probe of adam_solve(problem)'s second step, with
    every gradient after the first replaced by the first times scale, so
    the gradient falls by (1 - scale) times it over the first step.  The
    direction is max-normalized, so a probe's length is its largest move."""
    grads, calls = [], []
    gradient, project_ = allocator.grad_f, allocator.project

    def frozen(fp, z):
        grads.append(scale * grads[0] if grads else gradient(fp, z))
        return grads[-1]

    def recording(z_raw, *args, **kwargs):
        res = project_(z_raw, *args, **kwargs)
        calls.append((z_raw, res.z))
        return res

    monkeypatch.setattr(allocator, "grad_f", frozen)
    monkeypatch.setattr(allocator, "project", recording)
    _, trace = adam_solve(problem)
    # the start point's projection, the first step's probes, then the
    # second step's first probe from the first step's last
    first = trace[0]["probes"]
    return float(np.abs(calls[first + 1][0] - calls[first][1]).max())


@pytest.fixture(scope="module")
def split_missed_problem(scenario, schedule, problem):
    """Interval 0's problem, and its scenario, under floors the even comm
    split misses (floors_the_even_comm_split_misses)."""
    sc = replace(scenario, comm=replace(
        scenario.comm,
        throughput_floor=floors_the_even_comm_split_misses(scenario,
                                                           schedule)))
    return sc, IntervalProblem.build(sc, schedule, 0, problem.layout,
                                     problem.kernels, problem.prior_infos)


@pytest.fixture(scope="module")
def default_solves(scenario, schedule):
    return recorded_solves(scenario, schedule)


@pytest.fixture(scope="module")
def large_net_solves():
    net = large_net(0)
    return recorded_solves(net, build_schedule(net))


@pytest.fixture(scope="module", params=["default", "mini"])
def planned_solves(request):
    if request.param == "default":
        return request.getfixturevalue("default_solves")
    mini = make_mini_scenario(num_intervals=3, throughput_floor=1.0)
    return recorded_solves(mini, build_schedule(mini))


class TestLayout:
    def test_dimension(self, scenario, layout):
        assert layout.dim == (3 + 2) * 2 + 3 == 13

    def test_index_blocks_disjoint_and_complete(self, scenario, layout):
        idx = ([layout.var[i, q] for i in layout.mmr for q in range(2)]
               + [layout.var[i, q] for i in layout.par for q in range(2)]
               + [layout.n_radar_vars + j for j in range(3)])
        assert sorted(idx) == list(range(layout.dim))
        assert np.all(layout.var[kind_indices(scenario, RadarKind.MSR)] == -1)

    def test_energies_match_per_kind_formula(self, scenario, layout):
        z = np.random.default_rng(1).uniform(0.5, 2.0, layout.dim)
        E = layout.energies(z)
        mmr = kind_indices(scenario, RadarKind.MMR)
        par = kind_indices(scenario, RadarKind.PAR)
        assert mmr and par
        assert kind_indices(scenario, RadarKind.MSR)
        for i, node in enumerate(scenario.radars):
            for q in range(scenario.n_targets):
                if i in mmr:
                    assert E[i, q] == z[layout.var[i, q]] * node.fixed_dwell
                elif i in par:
                    assert E[i, q] == node.fixed_power * z[layout.var[i, q]]
                else:
                    assert E[i, q] == node.fixed_power * node.fixed_dwell


class TestObjectiveG:
    def test_identity_trace_case(self, scenario, problem):
        # B^q chosen so Lambda B^{-1} Lambda = I: each target contributes 1/4
        t0 = scenario.grid.interval_length
        prior = np.diag(lambda_diag(t0) ** 2)
        zeros = np.zeros((scenario.n_targets, scenario.n_radars, 4, 4))
        g = objective_g(baseline_uniform(problem),
                        replace(problem, kernels=zeros,
                                prior_infos=np.array([prior, prior])))
        assert g == pytest.approx(0.5, rel=1e-12)

    def test_singular_information_takes_the_jittered_inverse(self):
        # a singular information is inverted by inv_psd's retry with JITTER
        B = np.diag([1e-2, 0.0, 1e-2, 0.0])
        inv, _ = inv_psd(B + JITTER * np.eye(4), 0.0)
        c = float(lambda_diag(6.0) ** 2 @ np.diag(inv))
        assert np.isfinite(c)
        assert allocator._weighted_crb([B], lambda_diag(6.0))[2] == 1.0 / c
        assert crb_metric_and_bound([B], 6.0) == (1.0 / c, float(np.sqrt(c)))

    def test_monotone_in_radar_resources(self, layout, problem):
        z = baseline_uniform(problem)
        g1 = objective_g(z, problem)
        z2 = z.copy()
        z2[:layout.n_radar_vars] *= 1.5
        g2 = objective_g(z2, problem)
        assert g2 > g1


def random_psd_kernels(rng, q_n, n):
    W = rng.normal(size=(q_n, n, 4, 2))
    return W @ np.swapaxes(W, -1, -2)


class TestBayesianB:
    PRIOR = np.diag([1e-2, 1e-1, 1e-2, 1e-1])

    def test_zero_radar_resources_gives_prior(self):
        sc = make_mini_scenario()
        kern = random_psd_kernels(np.random.default_rng(4), 1, 1)
        prob = mini_problem(sc, build_schedule(sc), kern, [self.PRIOR])
        z = np.zeros(prob.layout.dim)
        z[prob.layout.n_radar_vars] = 5.0
        (B,) = bayesian_B(z, prob)
        np.testing.assert_array_equal(B, self.PRIOR)

    def test_additive_over_radars(self, scenario, layout, problem):
        # B^q = prior + sum_i P_i T_i / (alpha_c_i . P_c + sigma_i^2) D_i,
        # with P_i T_i substituted by hand for each radar kind
        rng = np.random.default_rng(5)
        kern = random_psd_kernels(rng, scenario.n_targets, scenario.n_radars)
        z = rng.uniform(0.5, 2.0, layout.dim)
        # documented block order: MMR powers, PAR dwells (radar-major,
        # target-minor), then the downlink powers
        mmr = kind_indices(scenario, RadarKind.MMR)
        par, q_n = kind_indices(scenario, RadarKind.PAR), 2
        pc = z[(len(mmr) + len(par)) * q_n:]
        priors = [self.PRIOR] * 2
        prob = replace(problem, kernels=kern, prior_infos=np.array(priors))
        for q, B in enumerate(bayesian_B(z, prob)):
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
        D = np.diag([3.0, 0.0, 3.0, 0.0])[None, None]
        prob = mini_problem(sc, build_schedule(sc), D, [2.0 * np.eye(4)])
        z = np.zeros(prob.layout.dim)
        z[prob.layout.var[0, 0]] = 1.0
        (B,) = bayesian_B(z, prob)
        np.testing.assert_allclose(np.diag(B), [3.5, 2.0, 3.5, 2.0])

    def test_loewner_monotone_in_radar_resources(self, scenario, layout,
                                                 problem):
        rng = np.random.default_rng(6)
        kern = random_psd_kernels(rng, scenario.n_targets, scenario.n_radars)
        z = rng.uniform(0.5, 2.0, layout.dim)
        z2 = z.copy()
        z2[:layout.n_radar_vars] *= 1.5
        prob = replace(problem, kernels=kern,
                       prior_infos=np.array([self.PRIOR] * 2))
        for B1, B2 in zip(bayesian_B(z, prob), bayesian_B(z2, prob)):
            assert np.min(np.linalg.eigvalsh(B2 - B1)) >= -1e-10

    def test_psd_across_chained_intervals(self):
        sc = make_mini_scenario(fixed_dwell=0.5)
        prob = mini_problem(sc, build_schedule(sc))
        t0 = sc.grid.interval_length
        F = transition_matrix(t0)
        gamma = process_noise_cov(t0, 1.0)
        rng = np.random.default_rng(7)
        B = self.PRIOR.copy()
        for _ in range(20):
            z = rng.uniform(0.0, 2.0, prob.layout.dim)
            (B,) = bayesian_B(z, replace(
                prob, kernels=random_psd_kernels(rng, 1, 1),
                prior_infos=np.array([prior_information(B, F, gamma)])))
            np.testing.assert_allclose(B, B.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(B)) >= -1e-12


class TestThroughput:
    def test_zero_comm_power(self, scenario, schedule, layout, problem):
        z = baseline_uniform(problem)
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
                                                    layout, problem):
        # where a throughput row holds with equality, the achieved throughput
        # equals the floor exactly
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        counts = schedule.counts[:, :, 0]
        z = baseline_uniform(problem)
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


    @pytest.mark.parametrize("net", ["default", "large_net"])
    def test_entry_point_returns_the_problem_rows(self, scenario, schedule,
                                                  net):
        if net == "large_net":
            scenario = large_net(0)
            schedule = build_schedule(scenario)
        chain = harness.planning_chain(
            scenario, planning_horizon(scenario, schedule), baseline_uniform)
        ks = []
        for prob, _, _ in chain:
            A, b, labels = assemble_constraints(scenario, schedule, prob.k)
            assert A.tobytes() == prob.A.tobytes()
            assert A.shape == prob.A.shape
            assert b.tobytes() == prob.b.tobytes()
            assert labels == prob.labels
            ks.append(prob.k)
        assert ks == list(range(scenario.grid.num_intervals))


def chain_states(scenario) -> np.ndarray:
    """(K, Q, 4) predicted target states of the planning chain: the initial
    states carried forward one interval at a time."""
    F = transition_matrix(scenario.grid.interval_length)
    states = [np.array([t.initial_state for t in scenario.targets])]
    for _ in range(scenario.grid.num_intervals):
        states.append(np.array([F @ s for s in states[-1]]))
    return np.array(states[1:])


def kernel_oracle(scenario, schedule, states) -> np.ndarray:
    """(K', Q, N, 4, 4) kernels from one fim_accumulate call per (interval,
    target) at the states (K', Q, 4), each on its own unstacked rows."""
    out = np.empty(states.shape[:2] + (scenario.n_radars, 4, 4))
    for k in range(states.shape[0]):
        t_fuse = scenario.grid.boundary(k)[1]
        for q in range(states.shape[1]):
            rows, start = block(schedule, q, k)
            out[k, q] = _kernels.fim_accumulate(
                states[k, q], t_fuse, rows.times, rows.radar_xy,
                1.0 / rows.kernel, start)
    return out


def silent_radar_scenario(scenario):
    """The default scenario with its last radar first looking after the
    horizon, so it has no rows at all, and every radar first looking at
    target 1 near the end of interval 1: target 1 has no rows in interval 0
    and a row set of 5 in interval 1, where the other sets hold 14."""
    radars = [replace(r, initial_time=np.array([r.initial_time[0], 11.0]))
              for r in scenario.radars]
    radars[-1] = replace(radars[-1], initial_time=np.full(2, 1000.0))
    return replace(scenario, radars=radars)


class TestComputeKernels:
    @pytest.mark.parametrize("net", ["default", "large_net", "silent_radar"])
    def test_bit_equal_to_one_call_per_interval_and_target(self, scenario,
                                                           net):
        sc = {"default": scenario, "large_net": large_net(0),
              "silent_radar": silent_radar_scenario(scenario)}[net]
        sch = build_schedule(sc)
        states = chain_states(sc)
        want = kernel_oracle(sc, sch, states)
        got = compute_kernels(sc, sch, states)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a shorter horizon is the same prefix
        assert compute_kernels(sc, sch, states[:3]).tobytes() == \
            want[:3].tobytes()
        if net == "silent_radar":
            assert sch.counts[-1].sum() == 0 and sch.counts[:, 1, 0].sum() == 0
            assert np.all(got[:, :, -1] == 0.0)
            assert np.all(got[0, 1] == 0.0)
            # an empty, a short and a full row set of target 1
            assert [len(block(sch, 1, k)[0].times) for k in range(3)] == [
                0, 5, 14]


def rows_oracle(scenario, layout, counts, k):
    """Interval k's (A, b, labels, precond), with counts (N, Q), assembled
    row by row and radar by radar."""
    t0 = scenario.grid.interval_length
    comm = scenario.comm
    rows, rhs, labels = [], [], []
    for j in range(comm.num_links):
        gain = np.expm1(comm.floor(j, k))
        a = np.zeros(layout.dim)
        for i, q in zip(*np.nonzero(layout.var >= 0)):
            a[layout.var[i, q]] = (gain * counts[i, q] * comm.alpha_r_sq[j, i]
                                   * layout.factor[i])
        a[layout.n_radar_vars + j] = -t0
        fixed = np.einsum("iq,i,i->", counts, comm.alpha_r_sq[j],
                          layout.fixed_energy)
        rows.append(a)
        rhs.append(-gain * (fixed + comm.noise_var * t0))
        labels.append(f"throughput[{j}]")
    precond = np.zeros(layout.dim)
    for i in layout.mmr + layout.par:
        a = np.zeros(layout.dim)
        a[layout.var[i]] = counts[i]
        rows.append(a)
        rhs.append(layout.budget[i])
        labels.append(f"{'power' if i in layout.mmr else 'time'}_budget[{i}]")
        precond[layout.var[i]] = layout.budget[i] / max(1, counts[i].sum())
    a = np.zeros(layout.dim)
    a[layout.n_radar_vars:] = 1.0
    rows.append(a)
    rhs.append(comm.power_budget)
    labels.append("bs_power_budget")
    precond[layout.n_radar_vars:] = comm.power_budget / comm.num_links
    return np.array(rows), np.array(rhs), labels, precond


def per_interval_floors(scenario):
    """The scenario with (J, K) throughput floors: each link's floor scaled
    from half to one and a half times its value over the intervals."""
    k_n = scenario.grid.num_intervals
    floors = (scenario.comm.throughput_floor[:, None]
              * np.linspace(0.5, 1.5, k_n)[None, :])
    return replace(scenario, comm=replace(scenario.comm,
                                          throughput_floor=floors))


class TestHorizonRows:
    @pytest.mark.parametrize("net", ["default", "per_interval_floors",
                                     "large_net"])
    def test_stacked_rows_equal_the_one_interval_rows(self, scenario, net):
        sc = {"default": scenario, "large_net": large_net(0),
              "per_interval_floors": per_interval_floors(scenario)}[net]
        sch = build_schedule(sc)
        lay = AllocationLayout.from_scenario(sc)
        k_n = sc.grid.num_intervals
        kernels = np.zeros((k_n, sc.n_targets, sc.n_radars, 4, 4))
        problems = IntervalProblem.horizon(sc, sch, lay, np.arange(k_n),
                                           kernels)
        infos = np.zeros((sc.n_targets, 4, 4))
        for k in range(k_n):
            stacked = problems[k](prior_infos=infos)
            alone = IntervalProblem.build(sc, sch, k, lay, kernels[k], infos)
            A, b, labels, precond = rows_oracle(sc, lay, sch.counts[:, :, k], k)
            assert stacked.k == alone.k == k
            for prob in (stacked, alone):
                assert prob.A.tobytes() == A.tobytes()
                assert prob.b.tobytes() == b.tobytes()
                assert prob.precond.tobytes() == precond.tobytes()
                assert prob.labels == labels
                assert prob.counts.tolist() == sch.counts[:, :, k].tolist()
        if net == "per_interval_floors":
            # the floors differ from interval to interval, and so do the rows
            assert (problems[0](prior_infos=infos).b[0]
                    != problems[k_n - 1](prior_infos=infos).b[0])

    def test_unreachable_floor_raises_when_its_interval_is_built(
            self, scenario, schedule):
        sc = per_interval_floors(scenario)
        sc.comm.throughput_floor[1, 3] = 50.0
        lay = AllocationLayout.from_scenario(sc)
        k_n = sc.grid.num_intervals
        problems = IntervalProblem.horizon(
            sc, schedule, lay, np.arange(k_n),
            np.zeros((k_n, sc.n_targets, sc.n_radars, 4, 4)))
        infos = np.zeros((sc.n_targets, 4, 4))
        for k in (0, 2, 4, 9):
            assert problems[k](prior_infos=infos).k == k
        message = ("throughput floor of link 1 unreachable: fixed "
                   "interference alone requires more than the base-station "
                   "budget (row 'throughput[1]')")
        with pytest.raises(InfeasibleError) as info:
            problems[3](prior_infos=infos)
        assert str(info.value) == message
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            assemble_constraints(sc, schedule, 3)


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
                                                 problem):
        v0 = [np.zeros((4, 4)) for _ in range(scenario.n_targets)]
        fp = assemble_fractional(v0, problem)
        np.testing.assert_array_equal(fp.w, 0.0)
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 10, layout.dim)
        assert f_value(fp, z) == pytest.approx(fp.constant)

    def test_matches_direct_inner_objective(self, scenario, problem):
        # for any trace-1 V, the fractional rewrite equals the direct
        # evaluation sum_q Tr(V^T Lambda^-1 B(z) Lambda^-1 V)
        rng = np.random.default_rng(3)
        lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
        for _ in range(20):
            v_mats = []
            for _ in range(scenario.n_targets):
                W = rng.normal(size=(4, 4))
                W = W @ W.T + 0.1 * np.eye(4)
                v_mats.append(W / np.trace(W))
            fp = assemble_fractional(v_mats, problem)
            z = baseline_random(problem, rng)
            direct = 0.0
            for q, B in enumerate(bayesian_B(z, problem)):
                lv = lam_inv[:, None] * v_mats[q]
                direct += np.trace(lv.T @ B @ lv)
            assert f_value(fp, z) == pytest.approx(direct, rel=1e-10)

    def test_gradient_matches_finite_differences(self, scenario, layout,
                                                 problem):
        rng = np.random.default_rng(4)
        lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
        z = baseline_random(problem, rng)
        b_mats = bayesian_B(z, problem)
        v_mats = [inner_v_update(B, lam_inv) for B in b_mats]
        fp = assemble_fractional(v_mats, problem)
        g = grad_f(fp, z)
        for idx in range(layout.dim):
            h = 1e-5 * max(1.0, abs(z[idx]))
            hi, lo = z.copy(), z.copy()
            hi[idx] += h
            lo[idx] -= h
            num = (f_value(fp, hi) - f_value(fp, lo)) / (2 * h)
            assert g[idx] == pytest.approx(num, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("solves", ["default_solves", "large_net_solves"])
    def test_slack_update_pins_f_to_g_and_grad_f_to_grad_g(self, solves,
                                                           request):
        # envelope theorem: with V the slack update of B(z), f(z) = g(z)
        # and grad_f(z) is the gradient of g, so the solver ascends g
        problem = request.getfixturevalue(solves)[0]["problem"]
        z = problem.precond
        lam_inv = 1.0 / lambda_diag(problem.t0)
        fp = assemble_fractional(inner_v_update(bayesian_B(z, problem),
                                                lam_inv), problem)
        assert f_value(fp, z) == pytest.approx(objective_g(z, problem),
                                               rel=1e-12)
        numeric = np.empty(z.size)
        for idx in range(z.size):
            h = 1e-5 * max(1.0, abs(z[idx]))
            hi, lo = z.copy(), z.copy()
            hi[idx] += h
            lo[idx] -= h
            numeric[idx] = (objective_g(hi, problem)
                            - objective_g(lo, problem)) / (2 * h)
        grad = grad_f(fp, z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6,
                                   atol=1e-6 * np.abs(numeric).max())


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

    def test_barely_infeasible_inputs_feasible_and_match_oracle(self):
        # a projected point pushed ~1e-10 off the polyhedron: rows violated
        # by that little must still be added, or the answer is left outside
        # by more than the feasibility tolerance
        rng = np.random.default_rng(7)
        for _ in range(300):
            dim, n_rows = int(rng.integers(3, 14)), int(rng.integers(2, 9))
            A = rng.uniform(0.0, 1.0, (n_rows, dim))
            b = rng.uniform(0.5, 2.0, n_rows)
            G = np.vstack([A, -np.eye(dim)])
            h = np.concatenate([b, np.zeros(dim)])
            z_star = project(rng.normal(0, 2, dim), A, b).z
            z0 = z_star + 1e-10 * rng.normal(size=dim)
            res = project(z0, A, b)
            z = res.z
            assert np.max(G @ z - h) <= 1e-12 * np.abs(h).max()
            # the answer's active rows are among those active at z_star; the
            # exhaustive search over their subsets costs 2^rows, so it runs
            # only where at most 9 are (217 of the 300 draws)
            near = np.flatnonzero(np.abs(G @ z_star - h) <= 1e-6)
            if near.size <= 9:
                oracle = _projection_oracle(z0, G[near], h[near])
                assert oracle is not None
                assert np.all(G @ oracle <= h + 1e-9)
                np.testing.assert_allclose(z, oracle, atol=1e-8)
            else:
                # elsewhere the KKT certificate of the returned set: the
                # stacked polish on it, every listed row tight and no
                # negative multiplier (feasibility is asserted above)
                rows = np.array(res.active)
                ref, mult, slack, bound = full_stacked_polish(z0, A, b, rows)
                np.testing.assert_allclose(z, ref, rtol=0, atol=1e-12)
                assert np.all(np.abs(slack[rows]) <= bound)
                assert np.all(mult >= -1e-9)

    def test_warm_start_matches_cold_projection(self, monkeypatch):
        # a warm start ends at a set with the KKT certificate, so any
        # guessed active set gives the cold answer: bitwise from the cold
        # call's own set, which is certified by its one polish, to rounding
        # from a wrong one
        polished = record_polishes(monkeypatch)
        rng = np.random.default_rng(8)
        infeasible, own_hits = 0, 0
        for _ in range(300):
            dim, n_rows = int(rng.integers(3, 14)), int(rng.integers(2, 9))
            A = rng.uniform(0.0, 1.0, (n_rows, dim))
            b = rng.uniform(0.5, 2.0, n_rows)
            x = rng.normal(0, 2, dim)
            cold = project(x, A, b)
            before = len(polished)
            warm = project(x, A, b, warm=cold.active)
            np.testing.assert_array_equal(warm.z, cold.z)
            assert warm.active == cold.active
            if cold.active:
                infeasible += 1
                own_hits += len(polished) == before + 1
            nearby = project(x + 0.1 * rng.normal(size=dim), A, b).active
            subset = list(np.flatnonzero(rng.random(n_rows + dim) < 0.5))
            for guess in ([], list(range(n_rows + dim)), subset, nearby):
                np.testing.assert_allclose(project(x, A, b, warm=guess).z,
                                           cold.z, rtol=0, atol=1e-12)
        assert own_hits >= 0.9 * infeasible > 0

    def test_uncertified_warm_set_is_repaired_without_a_restart(
            self, monkeypatch):
        # x + y <= 1 from (2, -1): the projection (1, 0) has the rows
        # x + y <= 1 and y >= 0 active, indices 0 and 2 of [A; -I]
        A, b, x = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([2.0, -1.0])
        cold = project(x, A, b)
        np.testing.assert_allclose(cold.z, [1.0, 0.0], atol=1e-12)
        polished = record_polishes(monkeypatch)
        # the right set is certified by its one polish
        np.testing.assert_array_equal(project(x, A, b, warm=[0, 2]).z, cold.z)
        assert polished == [(0, 2)]
        # {x + y = 1, x = 0} gives the feasible (0, 1) with a negative
        # multiplier, so x >= 0 is dropped and y >= 0 added; {y = 0} alone
        # gives (2, 0), outside the polyhedron, and x + y <= 1 is added;
        # neither falls back to the empty set
        for guess in ([0, 1], [2]):
            del polished[:]
            res = project(x, A, b, warm=guess)
            np.testing.assert_array_equal(res.z, cold.z)
            assert res.active == cold.active == [0, 2]
            assert () not in polished
        # the unit box from (0.5, 2): x <= 1 and x >= 0 cannot both be tight,
        # and taking them as tight would zero x; the polish leaves x <= 1
        # slack, so it is dropped first, then x >= 0 for its negative
        # multiplier, which leaves the cold set {y <= 1} and (0.5, 1)
        box, ones, x = np.eye(2), np.ones(2), np.array([0.5, 2.0])
        cold = project(x, box, ones)
        del polished[:]
        res = project(x, box, ones, warm=[0, 1, 2])
        np.testing.assert_array_equal(res.z, cold.z)
        np.testing.assert_array_equal(res.z, [0.5, 1.0])
        assert polished == [(0, 1, 2), (1, 2), (1,)]

    def test_guess_a_row_must_move_twice_on_is_certified(self, monkeypatch):
        # x + y + w <= 4 and x + 2y <= 4 from (2, 0, -1): the projection
        # (2, 0, 0) has only w >= 0 (row 4 of [A; -I]) active.  From the
        # guess {x + y + w = 4, w = 0} the polish (3, 1, 0) violates
        # x + 2y <= 4; adding it first, then dropping x + y + w <= 4 and
        # x + 2y <= 4 for their negative multipliers, moves x + 2y <= 4
        # twice.  The dual method drops x + y + w <= 4 (multiplier -1)
        # before it adds anything, and {w = 0} is certified.
        A = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 0.0]])
        b, x = np.array([4.0, 4.0]), np.array([2.0, 0.0, -1.0])
        cold = project(x, A, b)
        polished = record_polishes(monkeypatch)
        res = project(x, A, b, warm=[0, 4])
        np.testing.assert_array_equal(res.z, cold.z)
        np.testing.assert_array_equal(res.z, [2.0, 0.0, 0.0])
        assert res.active == cold.active == [4]
        assert polished == [(0, 4), (4,)]

    def test_row_in_the_span_of_the_set_takes_a_dual_step(self, monkeypatch):
        # x - y <= -1 from (-1, -1): the projection (0, 1) has x - y <= -1
        # and x >= 0 active.  From the guess {x >= 0, y >= 0}, certified at
        # (0, 0) with multipliers (1, 1), the violated x - y <= -1 equals
        # -1 * (-x) + 1 * (-y): it lies in the span of the set, the polish
        # on all three rows leaves it slack, and the dual step moves the
        # multipliers until y >= 0's reaches zero and leaves
        A, b = np.array([[1.0, -1.0]]), np.array([-1.0])
        x = np.array([-1.0, -1.0])
        cold = project(x, A, b)
        polished = record_polishes(monkeypatch)
        spans, span = [], allocator._span
        monkeypatch.setattr(allocator, "_span",
                            lambda face, g: spans.append(g) or span(face, g))
        res = project(x, A, b, warm=[1, 2])
        np.testing.assert_array_equal(res.z, cold.z)
        np.testing.assert_array_equal(res.z, [0.0, 1.0])
        assert res.active == cold.active == [0, 1]
        assert polished == [(1, 2), (0, 1, 2), (0, 1)]
        assert len(spans) == 1
        np.testing.assert_array_equal(spans[0], A[0])

    def test_negative_bound_multiplier_alone_is_dropped_by_the_repair(
            self, monkeypatch):
        # x + y <= 1 from (1, 1.5): the projection (0.25, 0.75) has only the
        # row of A active; {x + y = 1, x = 0} (rows 0 and 1 of [A; -I]) gives
        # the feasible (0, 1) = (1, 1.5) - m (1, 1) - mu (-1, 0) with the row
        # tight and m = 0.5, but the bound's multiplier mu is -0.5, so the
        # dual method drops x >= 0 before it starts
        A, b, x = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 1.5])
        cold = project(x, A, b)
        polished = record_polishes(monkeypatch)
        res = project(x, A, b, warm=[0, 1])
        np.testing.assert_allclose(res.z, [0.25, 0.75], atol=1e-12)
        np.testing.assert_array_equal(res.z, cold.z)
        assert res.active == cold.active == [0]
        assert polished == [(0, 1), (0,)]

    def test_repair_certifies_guesses_one_or_two_rows_off(self, monkeypatch):
        # x + y + w + v <= 1, x <= 0.2 and y <= 5 from (2, 1, -1, 0.5): the
        # projection (0.2, 0.65, 0, 0.15) has rows 0, 1 of A and w >= 0
        # (row 5 of [A; -I]) active, with multipliers 0.35, 1.45 and 1.35
        A = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0]])
        b, x = np.array([1.0, 0.2, 5.0]), np.array([2.0, 1.0, -1.0, 0.5])
        cold = project(x, A, b)
        np.testing.assert_allclose(cold.z, [0.2, 0.65, 0.0, 0.15], atol=1e-12)
        assert cold.active == [0, 1, 5]
        polished = record_polishes(monkeypatch)
        # w >= 0 missing: the polish has x + y + w + v <= 1 with a negative
        # multiplier, which is dropped, then w >= 0 and the row are added;
        # v >= 0 extra: its multiplier is -0.3 and it is dropped; both at
        # once: v >= 0 dropped, then as from the first guess
        for guess, faces in (([0, 1], 4), ([0, 1, 5, 6], 2), ([0, 1, 6], 5)):
            del polished[:]
            res = project(x, A, b, warm=guess)
            assert res.active == cold.active
            np.testing.assert_array_equal(res.z, cold.z)
            assert () not in polished
            assert len(polished) == faces

    def test_guess_of_nonnegativity_rows_only_skips_lapack(self, capfd,
                                                          monkeypatch):
        # from (-1, 2) under x + y <= 10 only x >= 0 (row 1 of [A; -I]) is
        # active: its face has no row of A and no Gram matrix to factor
        # (dgetrf prints an error for a 0x0 one); the guess x >= 0 is
        # certified by its polish, and from the guess y >= 0 (multiplier -2)
        # the dual method drops it and adds x >= 0
        A, b, x = np.array([[1.0, 1.0]]), np.array([10.0]), np.array([-1.0, 2.0])
        polished = record_polishes(monkeypatch)
        for guess, faces in (([1], [(1,)]), ([2], [(2,), (), (1,)])):
            del polished[:]
            res = project(x, A, b, warm=guess)
            np.testing.assert_array_equal(res.z, [0.0, 2.0])
            assert res.active == [1]
            assert polished == faces
        assert capfd.readouterr() == ("", "")

    def test_duplicated_row_takes_the_lstsq_fallback(self, monkeypatch):
        # two copies of x + y + w <= 1 from (2, 2, -1): the answer is
        # (0.5, 0.5, 0), and the warm set holding both copies and w >= 0
        # (rows 0, 1 and 4) has a singular reduced Gram [[2, 2], [2, 2]]
        A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        b, x = np.array([1.0, 1.0]), np.array([2.0, 2.0, -1.0])
        cold = project(x, A, b)
        np.testing.assert_allclose(cold.z, [0.5, 0.5, 0.0], atol=1e-12)
        lstsq_calls, lstsq = [0], np.linalg.lstsq

        def counted(*args, **kwargs):
            lstsq_calls[0] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        polished = record_polishes(monkeypatch)
        warm = project(x, A, b, warm=[0, 1, 4])
        np.testing.assert_allclose(warm.z, cold.z, rtol=0, atol=1e-12)
        assert warm.z[2] == 0.0
        assert warm.active == [0, 1, 4]
        assert (lstsq_calls[0], polished) == (1, [(0, 1, 4)])

    def test_reduced_polish_matches_the_full_stacked_polish(self, monkeypatch):
        # polyhedra up to large-net size (25 variables, 12 rows), sparse like
        # the budget rows, and warm sets mixing rows of A with nonnegativity
        # rows: every answer is the polish of [A; -I] on the cold set, taken
        # at the guess or after rows have moved
        polished = record_polishes(monkeypatch)
        rng = np.random.default_rng(10)
        outcomes = {"guess": 0, "moved": 0}
        for _ in range(200):
            dim, n_rows = int(rng.integers(3, 26)), int(rng.integers(2, 13))
            A = (rng.uniform(0.0, 1.0, (n_rows, dim))
                 * (rng.random((n_rows, dim)) < 0.6))
            b = rng.uniform(0.5, 2.0, n_rows)
            x = rng.normal(0, 2, dim)
            cold = project(x, A, b)
            if not cold.active:
                continue
            # the cold answer is the stacked polish on the active set
            z, *_ = full_stacked_polish(x, A, b, np.array(cold.active))
            np.testing.assert_allclose(cold.z, z, rtol=0, atol=1e-12)
            # the cold set, then each row toggled in or out with odds 1/8
            for toggle in (0.0, 0.125, 0.125):
                flip = rng.random(n_rows + dim) < toggle
                guess = np.flatnonzero(np.isin(np.arange(n_rows + dim),
                                               cold.active) ^ flip)
                if guess.size == 0:
                    continue
                del polished[:]
                res = project(x, A, b, warm=list(guess))
                outcomes["guess" if len(polished) == 1 else "moved"] += 1
                assert res.active == cold.active
                np.testing.assert_array_equal(res.z, cold.z)
        assert min(outcomes.values()) >= 100, outcomes

    def test_optimized_plan_has_no_near_zero_entries(self, scenario, schedule):
        # coordinates held by an active nonnegativity row are exactly 0
        allocs, *_ = plan_allocations(scenario, schedule, "optimized")
        for z in allocs:
            assert not np.any((z > 0) & (z < 1e-6 * z.max()))

    def test_empty_polyhedron_found_mid_solve_raises(self, monkeypatch):
        # x + y <= 1 and -x - y <= -2 from (0.5, 0.5): only the second row
        # is violated, and once it is added at (1, 1) the first one is, in
        # the span of the set with a multiplier that only rises; that dual
        # ray, weights (1, 1) on both rows, is Farkas's certificate:
        # (1, 1) A = 0 and (1, 1) b = -1
        A = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b, x = np.array([1.0, -2.0]), np.array([0.5, 0.5])
        polished = record_polishes(monkeypatch)
        with pytest.raises(allocator.InfeasibleError,
                           match=r"empty polyhedron: infeasible: rows \[0, 1\] "
                           r"weights \[1.0, 1.0\] yᵀb = -1$"):
            project(x, A, b)
        assert polished == [(), (1,), (0, 1)]

    def test_blocked_add_with_a_ray_that_fails_the_check_raises(
            self, monkeypatch):
        # the same blocked row with p's coefficients on the set scaled: the
        # ray (1, factor) is still >= 0, but at 0.5 its y^T b = 0 and at 2
        # its y^T A = (-1, -1), so neither proves the polyhedron empty
        span = allocator._span
        for factor in (0.5, 2.0):
            monkeypatch.setattr(allocator, "_span", lambda face, g, f=factor:
                                f * span(face, g))
            with pytest.raises(RuntimeError, match="projection failed to "
                               "converge: row 0 cannot be added") as info:
                project(np.array([0.5, 0.5]),
                        np.array([[1.0, 1.0], [-1.0, -1.0]]),
                        np.array([1.0, -2.0]))
            assert not isinstance(info.value, allocator.InfeasibleError)

    def test_every_infeasible_error_carries_a_checked_certificate(self):
        # random sparse polyhedra, about half of them empty, with a HiGHS LP
        # as the oracle: no polyhedron the LP finds feasible raises, and
        # every InfeasibleError names rows and weights w of a certificate
        # that holds here again (w >= 0, w A >= 0, w b < 0) on a polyhedron
        # the LP finds empty.  A rounding-spoiled ray raises RuntimeError
        # instead; that must stay rare
        from scipy.optimize import linprog
        rng = np.random.default_rng(11)
        outcomes = {"projected": 0, "certified": 0, "unproven": 0}
        for _ in range(600):
            dim, n_rows = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            A = (rng.normal(size=(n_rows, dim))
                 * (rng.random((n_rows, dim)) < 0.7))
            b = rng.normal(size=n_rows)
            lp = linprog(np.zeros(dim), A_ub=A, b_ub=b,
                         bounds=[(0, None)] * dim, method="highs")
            assert lp.status in (0, 2)
            try:
                z = project(rng.normal(0, 2, dim), A, b).z
            except InfeasibleError as exc:
                found = re.fullmatch(r"empty polyhedron: infeasible: rows "
                                     r"\[(.*)\] weights \[(.*)\] yᵀb = \S+",
                                     str(exc))
                rows = [int(r) for r in found[1].split(",")]
                w = np.array([float(x) for x in found[2].split(",")])
                assert lp.status == 2
                assert np.all(w >= 0)
                wa = w @ A[rows]
                assert np.all(wa >= -1e-12 * (w @ np.abs(A[rows])).max())
                assert w @ b[rows] < 0
                outcomes["certified"] += 1
            except RuntimeError:
                assert lp.status == 2
                outcomes["unproven"] += 1
            else:
                assert lp.status == 0
                # rows of the active set are held to project's 1e-9 polish
                # bound
                assert (A @ z - b).max() <= 1e-9 * max(1.0, np.abs(z).max())
                assert z.min() >= 0
                outcomes["projected"] += 1
        assert min(outcomes["projected"], outcomes["certified"]) >= 200
        assert outcomes["unproven"] <= 0.01 * outcomes["certified"], outcomes

    def test_cycling_past_the_step_limit_raises(self, monkeypatch):
        # the unit box from (2, 2) with polishes whose multipliers on the
        # face of both rows of A come out negative: adding either row drops
        # the other, for ever, until 4 * (rows + dim) = 16 steps
        polish = allocator._polish

        def flipped(z_raw, face, A, b):
            z, mult, resid = polish(z_raw, face, A, b)
            if face.on_a.size == 2:
                mult = -np.abs(mult)
            return z, mult, resid

        monkeypatch.setattr(allocator, "_polish", flipped)
        with pytest.raises(RuntimeError, match="projection failed to "
                           "converge in 16 steps"):
            project(np.array([2.0, 2.0]), np.eye(2), np.ones(2))


class TestBaselines:
    def test_uniform_splits(self, scenario, schedule, layout, problem):
        z = baseline_uniform(problem)
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
        prob = mini_problem(sc, build_schedule(sc))
        z = baseline_uniform(prob)
        np.testing.assert_array_equal(z[:prob.layout.n_radar_vars], 0.0)

    def test_random_deterministic_and_feasible(self, scenario, schedule,
                                               problem):
        z1 = baseline_random(problem, np.random.default_rng(9))
        z2 = baseline_random(problem, np.random.default_rng(9))
        np.testing.assert_array_equal(z1, z2)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        assert np.all(A @ z1 <= b + 1e-9)
        assert np.all(z1 >= 0)

    def test_random_budget_utilization(self, scenario, schedule, problem):
        rng = np.random.default_rng(10)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        row = scenario.comm.num_links  # first MMR power budget
        for _ in range(20):
            z = baseline_random(problem, rng)
            used = (A[row] @ z) / b[row]
            assert 0.0 < used <= 1.0 + 1e-9


    def test_uniform_scales_radars_to_the_tightest_floor(self):
        # at the even split the radar echoes drown the downlink below its
        # floor; the radar block shrinks by the largest scale that meets it
        sc = make_mini_scenario(radar_to_comm=1.0, throughput_floor=5.0)
        sch = build_schedule(sc)
        prob = mini_problem(sc, sch)
        lay, counts = prob.layout, sch.counts[:, :, 0]
        even = prob.precond
        z = baseline_uniform(prob)
        n_r = lay.n_radar_vars
        rho = z[:n_r] / even[:n_r]
        assert 0.0 < rho[0] < 0.9
        np.testing.assert_allclose(rho, rho[0], rtol=1e-15)
        np.testing.assert_array_equal(z[n_r:], even[n_r:])

        def floors_met(zz):
            return [throughput_r(j, zz, sc, lay, counts) >= sc.comm.floor(j, 0)
                    for j in range(lay.n_links)]

        assert not all(floors_met(even))
        assert all(floors_met(z))
        z[:n_r] *= 1.0 + 1e-9
        assert not all(floors_met(z))

    def test_uniform_raises_when_the_even_comm_split_misses_a_floor(
            self, schedule, split_missed_problem):
        # link 0's floor is reachable with the whole base-station budget, so
        # the polyhedron is not empty, but not with an even third of it
        _, prob = split_missed_problem
        z = baseline_random(prob, np.random.default_rng(0))
        assert np.all(prob.A @ z <= prob.b + 1e-9)
        with pytest.raises(InfeasibleError, match="even comm split"):
            baseline_uniform(prob)


class TestAdamSolve:
    def test_solves_where_the_even_comm_split_misses_a_floor(
            self, schedule, layout, split_missed_problem):
        # the start is the projection of the even split, which exists
        # whenever the polyhedron is not empty
        sc, prob = split_missed_problem
        z, trace = adam_solve(prob)
        assert trace
        assert np.all(prob.A @ z <= prob.b + 1e-9) and np.all(z >= 0)
        for j in range(layout.n_links):
            assert (throughput_r(j, z, sc, layout, schedule.counts[:, :, 0])
                    >= sc.comm.floor(j, 0) - 1e-9)
        g_random = objective_g(baseline_random(prob, np.random.default_rng(0)),
                               prob)
        assert objective_g(z, prob) >= g_random

    def test_beats_uniform_where_it_scales_the_radars_down(self):
        # the even split misses the floor, so the solver starts from its
        # projection, not from the uniform baseline; with one radar and one
        # link both end on the floor with the full comm budget, equal up to
        # rounding
        sc = make_mini_scenario(radar_to_comm=1.0, throughput_floor=5.0)
        prob = mini_problem(sc, build_schedule(sc))
        z_uni = baseline_uniform(prob)
        assert not np.all(z_uni == prob.precond)
        z, _ = adam_solve(prob)
        assert (objective_g(z, prob)
                >= objective_g(z_uni, prob) * (1.0 - 1e-12))

    def test_degenerate_empty_schedule(self):
        sc = make_mini_scenario(initial_time=100.0)
        z, trace = adam_solve(mini_problem(sc, build_schedule(sc),
                                           infos=[np.eye(4) * 1e-3]))
        assert len(trace) <= 2
        assert np.all(z >= 0)

    def test_single_radar_saturates_budget(self):
        sc = make_mini_scenario(throughput_floor=0.0)
        sch = build_schedule(sc)
        z, _ = adam_solve(mini_problem(sc, sch))
        counts = sch.counts[:, :, 0]
        used = counts[0, 0] * z[0]
        assert used == pytest.approx(sc.radars[0].power_budget, rel=1e-6)

    def test_beats_uniform_on_default(self, problem):
        z_opt, trace = adam_solve(problem)
        z_uni = baseline_uniform(problem)
        g_opt = objective_g(z_opt, problem)
        g_uni = objective_g(z_uni, problem)
        assert g_opt >= g_uni
        assert len(trace) >= 1
        assert all(np.isfinite(rec["f"]) for rec in trace)

    def test_iterates_feasible(self, scenario, schedule, problem,
                               monkeypatch):
        monkeypatch.setattr(allocator, "MAX_OUTER", 30)
        z, _ = adam_solve(problem)
        A, b, _ = assemble_constraints(scenario, schedule, 0)
        assert np.all(A @ z <= b + 1e-9)
        assert np.all(z >= 0)

    @pytest.mark.parametrize("which", ["default_plan", "floor_variant"])
    def test_one_information_and_one_inverse_per_probe(
            self, which, scenario, schedule, default_solves, monkeypatch):
        # a probe builds B(z) once and inverts it once: g there, and the
        # next step's slack matrices once it is accepted, come from that
        # inverse.  The start point takes two of each (objective_g, then
        # the first slack matrices) and one projection before the probes
        # and one after them, so every count is the probes' plus 2
        if which == "default_plan":
            problems = [solve["problem"] for solve in default_solves]
        else:
            # the tightest solve-sweep floor variant at seed 0, interval 3
            floor = floor_variants(scenario, schedule, 0, 8)[-1]
            variant = replace(scenario, comm=replace(scenario.comm,
                                                     throughput_floor=floor))
            problems = [next(p for p, _, _ in planning_chain(
                variant, planning_horizon(variant, schedule),
                baseline_uniform) if p.k == 3)]
        counts = {}
        for name in ("bayesian_B", "inv_psd", "project"):
            def counted(*args, _name=name, _fn=getattr(allocator, name),
                        **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(allocator, name, counted)
        for problem in problems:
            counts.update(bayesian_B=0, inv_psd=0, project=0)
            _, trace = adam_solve(problem)
            probes = counts["project"] - 2
            assert probes >= sum(rec["probes"] for rec in trace) > 0
            assert counts["bayesian_B"] == counts["inv_psd"] == probes + 2, \
                (problem.k, counts)

    def test_warm_start_leaves_plan_and_trace_unchanged(self, scenario,
                                                        schedule, monkeypatch):
        z_warm, _, tr_warm, _ = plan_allocations(scenario, schedule,
                                                 "optimized")
        project = allocator.project
        monkeypatch.setattr(allocator, "project",
                            lambda z, A, b, warm=None, faces=None:
                            project(z, A, b))
        z_cold, _, tr_cold, _ = plan_allocations(scenario, schedule,
                                                 "optimized")
        for zw, zc in zip(z_warm, z_cold, strict=True):
            np.testing.assert_array_equal(zw, zc)
        assert tr_warm == tr_cold

    def test_line_search_projections_mostly_start_from_their_guess(
            self, scenario, schedule, monkeypatch):
        # the first line-search probe of each solve starts from the rows
        # tight at the start point, and every later probe from the rows
        # active at the one before; each is certified at its guess or moves
        # rows from it without emptying it, so no polish is on the empty set
        polished = record_polishes(monkeypatch)
        solve, solves = harness.adam_solve, [0]

        def counted(*args, **kwargs):
            solves[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "adam_solve", counted)
        plan_allocations(scenario, schedule, "optimized")
        assert solves[0] > 0 and len(polished) > solves[0]
        assert polished.count(()) == 0

    def test_g_never_falls_along_a_trace(self, planned_solves):
        for solve in planned_solves:
            # the solver starts from the even split's round trip through
            # budget-normalized coordinates, which can move g by an ulp
            g = ([solve["g_start"] * (1.0 - 1e-12)]
                 + [rec["g"] for rec in solve["trace"]])
            assert all(b >= a for a, b in zip(g, g[1:])), solve["k"]

    def test_every_record_but_the_last_raises_g_by_more_than_obj_tol(
            self, planned_solves):
        tol = allocator.OBJ_TOL
        for solve in planned_solves:
            g = [solve["g_start"]] + [rec["g"] for rec in solve["trace"]]
            assert all(b - a > tol * a for a, b in zip(g[:-2], g[1:-1])), \
                solve["k"]

    def test_plan_is_the_last_record(self, planned_solves):
        for solve in planned_solves:
            assert solve["trace"], solve["k"]
            assert solve["g_plan"] == pytest.approx(solve["trace"][-1]["g"],
                                                    rel=1e-8)

    def test_halved_step_recovers_ascent_where_g_falls(
            self, scenario, schedule, default_solves, monkeypatch):
        # f bounds g from above, so a step that raises f can lower g; the
        # solver then halves the step instead of stopping there.  g of the
        # start point and of every probe is read from the inverse that
        # yields it, the start point's twice (objective_g, then the slack)
        tol = allocator.OBJ_TOL
        evaluated, weighted_crb = [], allocator._weighted_crb

        def recording(*args):
            terms = weighted_crb(*args)
            evaluated.append(terms[2])
            return terms

        monkeypatch.setattr(allocator, "_weighted_crb", recording)
        recovered = 0
        for solve in default_solves:
            evaluated.clear()
            _, trace = adam_solve(solve["problem"])
            g_prev, start = evaluated[0], 2
            for rec in trace:
                end = evaluated.index(rec["g"], start)
                probes = evaluated[start:end]
                recovered += min(probes, default=g_prev) < g_prev * (1 - tol)
                g_prev, start = rec["g"], end + 1
        assert recovered > 0

    @pytest.mark.parametrize("solves", ["default_solves", "large_net_solves"])
    def test_at_most_one_and_a_half_probes_per_accepted_step(self, solves,
                                                             request):
        # each step's first probe is at the last step's Barzilai-Borwein
        # length, which g mostly accepts; probes count it and the halvings
        # while g falls
        trace = [rec for solve in request.getfixturevalue(solves)
                 for rec in solve["trace"]]
        assert all(rec["probes"] >= 1 for rec in trace)
        assert sum(rec["probes"] for rec in trace) <= 1.5 * len(trace)

    def test_first_probe_at_step_size_where_the_gradient_rises(
            self, problem, monkeypatch):
        # a gradient that doubles over the first step gives s'y < 0: no
        # Barzilai-Borwein length, and the probe falls back to STEP_SIZE
        assert second_step_first_probe(problem, monkeypatch, 2.0) == \
            pytest.approx(allocator.STEP_SIZE, rel=1e-12)

    def test_first_probe_clipped_to_the_step_floor(self, problem,
                                                   monkeypatch):
        # a gradient that all but vanishes over the first step gives a
        # Barzilai-Borwein length far below STEP_FLOOR, which it is raised to
        assert second_step_first_probe(problem, monkeypatch, 1e-20) == \
            pytest.approx(allocator.STEP_FLOOR, rel=1e-6)

    def test_first_probe_accepted_on_a_linear_arc(self):
        # without comm-to-radar interference the downlink powers do not
        # enter the radar's information, which only grows with its power;
        # the step raises that power, so g does not fall at the first probe
        # and the probe is accepted
        sc = make_mini_scenario(comm_to_radar=0.0)
        assert not sc.comm.alpha_c_sq.any()
        sch = build_schedule(sc)
        prob = mini_problem(sc, sch)
        z, trace = adam_solve(prob, z0=0.5 * baseline_uniform(prob))
        assert trace[0]["probes"] == 1
        assert trace[0]["step_norm"] > 0
        assert sch.counts[0, 0, 0] * z[0] == pytest.approx(
            sc.radars[0].power_budget, rel=1e-9)

    def test_plan_g_holds_against_the_growth_search(self, scenario, schedule,
                                                    default_solves):
        # a plan with higher g early on chains into different problems
        # later, where g can read lower, so per interval g is compared on
        # the problems whose priors chain through STEP_SIZE_PLAN, and over
        # the solver's own chained plan in sum
        tol = allocator.OBJ_TOL
        g_fixed = []

        def allocate(problem):
            z, _ = adam_solve(problem)
            g_fixed.append(objective_g(z, problem))
            return STEP_SIZE_PLAN[problem.k]

        for _ in planning_chain(scenario, planning_horizon(scenario, schedule),
                                allocate):
            pass
        for k, (g, g_old) in enumerate(zip(g_fixed, GROWTH_SEARCH_G,
                                           strict=True)):
            assert g >= g_old * (1.0 - tol), k
        g_plan = sum(solve["g_plan"] for solve in default_solves)
        assert g_plan >= sum(GROWTH_SEARCH_G) * (1.0 - tol)

    def test_max_outer_caps_the_trace(self, scenario, schedule, monkeypatch):
        monkeypatch.setattr(allocator, "MAX_OUTER", 3)
        _, _, traces, _ = plan_allocations(scenario, schedule, "optimized")
        assert max(len(tr) for tr in traces) == 3

    def test_restart_from_own_plan_stays_put(self, scenario, schedule,
                                             default_solves):
        # at its own plan no step raises g by more than OBJ_TOL, so the
        # solver stops within one step, without moving if g would fall
        for solve in default_solves:
            z, trace = adam_solve(solve["problem"], z0=solve["z"])
            assert len(trace) <= 1, solve["k"]
            g_z0 = solve["g_of"](solve["z"])
            assert solve["g_of"](z) >= g_z0 * (1.0 - 1e-9), solve["k"]


class TestSolverOracle:
    def test_g_within_five_obj_tol_of_an_slsqp_refinement(self, scenario,
                                                          schedule):
        # the problems of perfbench's solve-sweep at seed 0: every interval
        # of 8 throughput-floor variants, its priors chained through
        # uniform allocations as in `hrcn solve`; SLSQP refines each plan in
        # budget-normalized coordinates, each row of [A; -I] scaled by
        # max(1, |b|), and must stay feasible for its g to count
        from scipy.optimize import minimize
        gaps = {}
        for v, floor in enumerate(floor_variants(scenario, schedule, 0, 8)):
            variant = replace(scenario, comm=replace(scenario.comm,
                                                     throughput_floor=floor))
            for problem, _, _ in planning_chain(
                    variant, planning_horizon(variant, schedule),
                    baseline_uniform):
                z, _ = adam_solve(problem)
                g = objective_g(z, problem)
                scale = problem.precond
                norm = np.maximum(1.0, np.abs(problem.b))
                G = np.vstack([problem.A * scale / norm[:, None],
                               -np.eye(z.size)])
                h = np.concatenate([problem.b / norm, np.zeros(z.size)])
                res = minimize(
                    lambda u: -objective_g(scale * u, problem) / g, z / scale,
                    method="SLSQP", options={"ftol": 1e-15, "maxiter": 200},
                    constraints=[{"type": "ineq", "fun": lambda u: h - G @ u,
                                  "jac": lambda u: -G}])
                assert (G @ res.x - h).max() <= 1e-9, (v, problem.k)
                gaps[v, problem.k] = objective_g(scale * res.x, problem) / g - 1
        assert len(gaps) == 80
        worst = max(gaps, key=gaps.get)
        assert gaps[worst] <= 5 * allocator.OBJ_TOL, (worst, gaps[worst])


class TestInterferenceDenominators:
    def test_hand_value(self, scenario, layout):
        z = np.zeros(layout.dim)
        z[layout.n_radar_vars:] = [1.0, 2.0, 3.0]
        denoms = interference_denominators(layout, z)
        expected = (scenario.comm.alpha_c_sq @ np.array([1.0, 2.0, 3.0])
                    + np.array([r.noise_var for r in scenario.radars]))
        np.testing.assert_allclose(denoms, expected, rtol=1e-14)
