"""Experiment harness: RMSE scoring, policy comparison, and result files."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from hrcn import fusion, harness
from hrcn.allocator import (AllocationLayout, InfeasibleError, IntervalProblem,
                            baseline_uniform, compute_kernels, info_scale,
                            lambda_diag)
from hrcn.fusion import FusionError, fim
from hrcn.harness import (compare_allocations, plan_allocations,
                          planning_chain, planning_horizon, rmse,
                          save_result, scenario_fingerprint)
from hrcn.kinematics import process_noise_cov, transition_matrix
from hrcn.scenario import build_schedule
from hrcn.tracker import INIT_COV_DIAG

from conftest import block, stack_alone

LAM = lambda_diag(6.0)


class TestRmse:
    def test_exact_estimates(self):
        assert rmse(np.zeros((5, 2, 4)), LAM) == 0.0

    def test_single_sample_identity(self):
        # one trial, one target, error chosen so ||Lambda e|| = 5
        e = np.array([[[3.0, 0.0, 4.0, 0.0]]])
        assert rmse(e, LAM) == pytest.approx(5.0)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(size=(7, 3, 4))
        naive = 0.0
        for q in range(3):
            acc = 0.0
            for n in range(7):
                acc += np.sum((LAM * errors[n, q]) ** 2)
            naive += np.sqrt(acc / 7)
        assert rmse(errors, LAM) == pytest.approx(naive, rel=1e-12)

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros((0, 2, 4)), LAM)


class TestPlanAllocations:
    def test_unknown_policy_rejected(self, scenario, schedule):
        with pytest.raises(ValueError, match="unknown policy"):
            plan_allocations(scenario, schedule, "greedy")

    def test_uniform_plan_shapes(self, scenario, schedule):
        allocs, g_values, traces, bounds = plan_allocations(
            scenario, schedule, "uniform")
        assert (len(allocs) == len(g_values) == len(bounds)
                == scenario.grid.num_intervals)
        assert all(np.all(z >= 0) for z in allocs)
        assert all(np.isfinite(g) for g in g_values)
        assert all(np.isfinite(b) and b > 0 for b in bounds)

    def test_random_plan_seeded(self, scenario, schedule):
        a, *_ = plan_allocations(scenario, schedule, "random", seed=3)
        b, *_ = plan_allocations(scenario, schedule, "random", seed=3)
        for za, zb in zip(a, b):
            np.testing.assert_array_equal(za, zb)


class TestPlanningChain:
    def test_information_symmetric_psd(self, scenario, schedule):
        n = 0
        for problem, _, b_mats in planning_chain(
                scenario, planning_horizon(scenario, schedule),
                baseline_uniform):
            for B in list(problem.prior_infos) + list(b_mats):
                np.testing.assert_allclose(B, B.T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(B)) >= -1e-12
            n += 1
        assert n == scenario.grid.num_intervals

    def test_kernels_are_the_information_tracking_fuses(self, scenario,
                                                        schedule):
        # planning's sum_i scale_i D_i is the Fisher information of the rows
        # tracking stacks under the same plan, at the same predicted state
        F = transition_matrix(scenario.grid.interval_length)
        states = [t.initial_state for t in scenario.targets]
        chain = planning_chain(scenario, planning_horizon(scenario, schedule),
                               baseline_uniform)
        for k, (problem, z, _) in enumerate(chain):
            # the predicted states the chain evaluated the kernels at
            states = [F @ s for s in states]
            t_k, t_fuse = scenario.grid.boundary(k)
            scale = info_scale(problem.layout, z)
            for q, state in enumerate(states):
                rows = block(schedule, q, k)[0]
                stack = stack_alone(rows, scale[rows.radar, q], state,
                                    t_k, t_fuse,
                                    np.zeros((len(rows.times), 2)))
                np.testing.assert_allclose(
                    np.einsum("i,iab->ab", scale[:, q], problem.kernels[q]),
                    fim(stack, state), rtol=1e-12)


    def test_unreachable_floor_raises_once_the_chain_reaches_it(
            self, scenario, schedule):
        floors = np.repeat(scenario.comm.throughput_floor[:, None],
                           scenario.grid.num_intervals, axis=1)
        floors[1, 3] = 50.0
        sc = replace(scenario, comm=replace(scenario.comm,
                                            throughput_floor=floors))
        ks = []
        with pytest.raises(InfeasibleError, match="throughput floor of link "
                           "1 unreachable"):
            for problem, z, _ in planning_chain(
                    sc, planning_horizon(sc, schedule), baseline_uniform):
                ks.append(problem.k)
        assert ks == [0, 1, 2]

    @pytest.mark.parametrize("policy", ["optimized", "uniform", "random"])
    def test_partial_horizon_plans_its_intervals_of_the_full_plan(
            self, scenario, schedule, policy):
        # the horizon alone decides how far the chain runs
        full = plan_allocations(scenario, schedule, policy)
        part = plan_allocations(scenario, schedule, policy,
                                horizon=planning_horizon(scenario, schedule,
                                                         last=2))
        allocations, g_values, traces, bounds = part
        assert len(allocations) == 3
        assert ([z.tobytes() for z in allocations]
                == [z.tobytes() for z in full[0][:3]])
        assert g_values == full[1][:3] and bounds == full[3][:3]
        assert traces == full[2][:3]

    @pytest.mark.parametrize("policy", ["optimized", "uniform", "random"])
    def test_builds_the_layout_once(self, scenario, schedule, policy,
                                    monkeypatch):
        built, from_scenario = [], AllocationLayout.from_scenario

        def counted(sc):
            built.append(sc)
            return from_scenario(sc)

        monkeypatch.setattr(AllocationLayout, "from_scenario", counted)
        allocs, *_ = plan_allocations(scenario, schedule, policy)
        assert len(allocs) == scenario.grid.num_intervals
        assert len(built) == 1
        # tracking reads the layout of its caller, so a comparison builds as
        # many layouts for one trial as for several
        per_trials = []
        for n_trials in (1, 3):
            built.clear()
            compare_allocations(scenario, [policy], n_trials=n_trials)
            per_trials.append(len(built))
        assert per_trials[0] == per_trials[1]


class TestCompareAllocations:
    def test_single_policy_smoke(self, scenario):
        result = compare_allocations(scenario, ["uniform"], n_trials=1,
                                     seed=11)
        pol = result.policies["uniform"]
        assert np.isfinite(pol.avg_rmse) and pol.avg_rmse >= 0
        assert len(pol.rmse_per_interval) == scenario.grid.num_intervals
        assert len(pol.throughput[0]) == scenario.comm.num_links

    def test_avg_is_mean_of_per_interval(self, scenario):
        result = compare_allocations(scenario, ["uniform"], n_trials=2,
                                     seed=12)
        pol = result.policies["uniform"]
        assert pol.avg_rmse == pytest.approx(
            float(np.mean(pol.rmse_per_interval)))

    def test_root_bcrb_hand_value(self, scenario, schedule):
        # interval 0 under the uniform plan: predicted prior from the
        # initial covariance, plus every radar's scaled information kernel
        result = compare_allocations(scenario, ["uniform"], n_trials=1,
                                     seed=15)
        t0 = scenario.grid.interval_length
        F = transition_matrix(t0)
        P0 = np.diag(INIT_COV_DIAG)
        states = [F @ t.initial_state for t in scenario.targets]
        D = compute_kernels(scenario, schedule, [states])[0]
        priors = [np.linalg.inv(process_noise_cov(t0, t.process_noise_intensity)
                                + F @ P0 @ F.T) for t in scenario.targets]
        layout = AllocationLayout.from_scenario(scenario)
        z = baseline_uniform(IntervalProblem.build(scenario, schedule, 0,
                                                   layout, D, priors))
        np.testing.assert_array_equal(
            result.policies["uniform"].allocations[0], z)
        scale = info_scale(layout, z)
        lam = np.diag(lambda_diag(t0))
        expected = 0.0
        for q, B in enumerate(priors):
            B = B + sum(scale[i, q] * D[q, i] for i in range(scenario.n_radars))
            expected += np.sqrt(np.trace(lam @ np.linalg.inv(B) @ lam))
        bounds = result.policies["uniform"].root_bcrb
        assert len(bounds) == scenario.grid.num_intervals
        assert bounds[0] == pytest.approx(expected, rel=1e-10)

    def test_unknown_policy_rejected(self, scenario):
        with pytest.raises(ValueError, match="unknown"):
            compare_allocations(scenario, ["greedy"], n_trials=1)

    def test_zero_trials_rejected(self, scenario):
        with pytest.raises(ValueError, match="n_trials"):
            compare_allocations(scenario, ["uniform"], n_trials=0)

    def test_repeated_policy_rejected(self, scenario):
        # the result holds one entry per policy, so a repeat would be run
        # and then overwritten
        with pytest.raises(ValueError, match="repeated policies"):
            compare_allocations(scenario, ["uniform", "uniform"], n_trials=1)

    def test_tracks_every_policy_in_one_run(self, scenario, monkeypatch):
        # a reordered subset gives each policy the result it has alone
        runs, run_tracking = [], harness.run_tracking

        def counted(*args):
            runs.append(args)
            return run_tracking(*args)

        monkeypatch.setattr(harness, "run_tracking", counted)
        both = compare_allocations(scenario, ["random", "optimized"],
                                   n_trials=2, seed=1)
        assert len(runs) == 1
        for policy in ("optimized", "random"):
            alone = compare_allocations(scenario, [policy], n_trials=2,
                                        seed=1).policies[policy]
            assert both.policies[policy] == alone

    def test_plans_every_policy_on_one_horizon(self, scenario, monkeypatch):
        # the kernels and constraint rows no policy changes are built once,
        # and each policy gets the plan it has on a horizon of its own
        built, compute_kernels = [], harness.compute_kernels

        def counted(*args):
            built.append(args)
            return compute_kernels(*args)

        monkeypatch.setattr(harness, "compute_kernels", counted)
        result = compare_allocations(scenario, list(harness.POLICIES),
                                     n_trials=1, seed=2)
        assert len(built) == 1
        schedule = build_schedule(scenario)
        for policy, pol in result.policies.items():
            allocations, g_values, traces, bounds = plan_allocations(
                scenario, schedule, policy, 2)
            assert pol.allocations == [list(map(float, z))
                                       for z in allocations]
            assert pol.g_values == g_values
            assert pol.root_bcrb == bounds
            assert pol.traces == traces
        assert len(built) == 1 + len(harness.POLICIES)

    def test_failure_names_the_policy(self, scenario, monkeypatch):
        monkeypatch.setattr(fusion, "GN_MAX_ITER", 1)
        with pytest.raises(FusionError, match="policy random: fusion failed "
                           "for plan 0 target 0 interval 0 trial 0"):
            compare_allocations(scenario, ["random", "optimized"],
                                n_trials=2, seed=1)

    def test_fingerprints_the_scenario_once(self, scenario, monkeypatch):
        calls = []

        def counted(sc):
            calls.append(sc)
            return scenario_fingerprint(sc)

        monkeypatch.setattr(harness, "scenario_fingerprint", counted)
        result = compare_allocations(scenario, ["uniform"], n_trials=1)
        assert calls == [scenario]
        assert result.scenario_hash == scenario_fingerprint(scenario)


class TestResultFiles:
    def test_round_trip_bit_exact(self, scenario, tmp_path):
        result = compare_allocations(scenario, ["uniform", "random"],
                                     n_trials=2, seed=13)
        manifest, csv_path = save_result(result, str(tmp_path))
        with open(manifest) as fh:
            loaded = json.load(fh)
        assert loaded["run_id"] == result.run_id
        assert loaded["scenario_hash"] == result.scenario_hash
        for name in result.policies:
            got, want = loaded["policies"][name], result.policies[name]
            assert got["g_values"] == want.g_values
            assert got["rmse_per_interval"] == want.rmse_per_interval
            assert got["root_bcrb"] == want.root_bcrb
            assert len(got["root_bcrb"]) == scenario.grid.num_intervals
            assert got["avg_rmse"] == want.avg_rmse
            assert got["throughput"] == want.throughput
            assert got["allocations"] == want.allocations

    def test_csv_columns(self, scenario, tmp_path):
        import csv
        result = compare_allocations(scenario, ["uniform"], n_trials=1,
                                     seed=14)
        _, csv_path = save_result(result, str(tmp_path))
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "policy", "k", "g_value", "rmse",
                           "root_bcrb", "throughput_j1", "throughput_j2",
                           "throughput_j3"]
        assert len(rows) == 1 + scenario.grid.num_intervals

    def test_fingerprint_stable(self, scenario):
        assert scenario_fingerprint(scenario) == scenario_fingerprint(scenario)
        assert len(scenario_fingerprint(scenario)) == 16

    def test_fingerprint_sees_tiny_state_change(self, scenario):
        other = copy.deepcopy(scenario)
        other.targets[0].initial_state[0] += 1e-9
        assert scenario_fingerprint(other) != scenario_fingerprint(scenario)

    def test_fingerprint_sees_one_entry_of_large_floor(self, scenario):
        # numpy elides arrays this large in repr
        a, b = copy.deepcopy(scenario), copy.deepcopy(scenario)
        a.comm.throughput_floor = np.full((3, 400), 0.5)
        b.comm.throughput_floor = np.full((3, 400), 0.5)
        b.comm.throughput_floor[1, 200] = 0.6
        assert scenario_fingerprint(a) != scenario_fingerprint(b)
