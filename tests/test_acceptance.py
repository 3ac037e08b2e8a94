"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned here and must not be loosened."""

import time

import numpy as np

from hrcn.allocator import (AllocationLayout,
                            assemble_constraints, assemble_fractional,
                            baseline_random, bayesian_B, f_value, grad_f,
                            lambda_diag, objective_g, project, throughput_r)
from hrcn.fusion import StackedMeasurements, fim, ils_mle, prior_information
from hrcn.harness import compare_allocations, plan_allocations
from hrcn.kinematics import measure, process_noise_cov, transition_matrix
from hrcn.scenario import build_schedule

from conftest import inner_v_update, measurement_jacobian


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _interval_problem(scenario, schedule, k=0):
    from hrcn.cli import _interval_problem
    return _interval_problem(scenario, schedule, k)


def test_criterion_1_inner_solution_identity():
    """Closed-form slack update: trace 1, attains 1/Tr(M^-1), beats random."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ones = np.ones(4)
    ok = True
    inverses_trace = []
    mats = []
    for _ in range(1000):
        W = rng.normal(size=(4, 4))
        M = W @ W.T + 0.05 * np.eye(4)
        V = inner_v_update(M, ones)
        target = 1.0 / np.trace(np.linalg.inv(M))
        attained = float(np.trace(V.T @ M @ V))
        ok &= abs(np.trace(V) - 1.0) <= 1e-8
        ok &= abs(attained - target) <= 1e-8 * abs(target)
        mats.append(M)
        inverses_trace.append(target)
    # random-search lower bound: 1e4 random trace-1 matrices never beat V
    randoms = rng.normal(size=(10_000, 4, 4))
    randoms /= np.trace(randoms, axis1=1, axis2=2)[:, None, None]
    for M, target in zip(mats[::50], inverses_trace[::50]):
        vals = np.einsum("nji,jk,nki->n", randoms, M, randoms)
        ok &= np.min(vals) >= target - 1e-8 * abs(target)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, f"inner-solution identity ({elapsed:.1f} s)", bool(ok))


def test_criterion_2_maximin_equivalence(scenario, schedule):
    """Inner-minimized slack objective equals the CRB metric for fixed z."""
    rng = np.random.default_rng(102)
    problem = _interval_problem(scenario, schedule, 0)
    lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
    ok = True
    for _ in range(100):
        z = baseline_random(problem, rng)
        b_mats = bayesian_B(z, problem)
        v_mats = [inner_v_update(B, lam_inv) for B in b_mats]
        fp = assemble_fractional(v_mats, problem)
        f_min = f_value(fp, z)
        g = objective_g(z, problem)
        ok &= abs(f_min - g) <= 1e-8 * abs(g)
    _report(2, "maximin-metric equivalence", bool(ok))


def test_criterion_3_gradient_and_jacobian_checks(scenario, schedule):
    """grad_f and measurement_jacobian agree with central differences."""
    rng = np.random.default_rng(103)
    problem = _interval_problem(scenario, schedule, 0)
    layout = problem.layout
    lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
    ok = True
    for _ in range(100):
        z = baseline_random(problem, rng)
        b_mats = bayesian_B(z, problem)
        v_mats = [inner_v_update(B, lam_inv) for B in b_mats]
        fp = assemble_fractional(v_mats, problem)
        grad = grad_f(fp, z)
        idx = rng.integers(0, layout.dim)
        h = 1e-5 * max(1.0, abs(z[idx]))
        hi, lo = z.copy(), z.copy()
        hi[idx] += h
        lo[idx] -= h
        num = (f_value(fp, hi) - f_value(fp, lo)) / (2 * h)
        ok &= abs(grad[idx] - num) <= 1e-6 * max(abs(num), 1e-9)
    for _ in range(100):
        s = rng.uniform(-5000, 5000, 4)
        radar = rng.uniform(-5000, 5000, 2)
        if np.hypot(s[0] - radar[0], s[2] - radar[1]) < 10.0:
            continue
        H = measurement_jacobian(s, radar)
        eps = 1e-4
        for col in (0, 2):
            hi, lo = s.copy(), s.copy()
            hi[col] += eps
            lo[col] -= eps
            num = (np.array(measure(hi, radar))
                   - np.array(measure(lo, radar))) / (2 * eps)
            ok &= np.allclose(H[:, col], num, rtol=1e-6, atol=1e-10)
    _report(3, "gradient and Jacobian finite-difference checks", bool(ok))


def _projection_oracle(z0, G, h):
    """Exhaustive active-set search: try every subset of rows as the active
    set and keep the feasible KKT point closest to z0."""
    from itertools import combinations
    m, dim = G.shape
    best, best_d = None, np.inf
    for size in range(0, dim + 1):
        for S in combinations(range(m), size):
            S = list(S)
            if not S:
                z = z0.copy()
                mult = np.zeros(0)
            else:
                GS = G[S]
                K = GS @ GS.T
                mult, *_ = np.linalg.lstsq(K, GS @ z0 - h[S], rcond=None)
                z = z0 - GS.T @ mult
                if not np.allclose(GS @ z, h[S], atol=1e-8):
                    continue
                if np.any(mult < -1e-9):
                    continue
            if np.any(G @ z > h + 1e-9):
                continue
            d = np.linalg.norm(z - z0)
            if d < best_d - 1e-12:
                best, best_d = z, d
    return best


def test_criterion_4_projection_matches_oracle():
    """project() equals the exhaustive active-set QP on small polyhedra and
    is idempotent on feasible inputs."""
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        n_rows = int(rng.integers(1, 4))
        A = rng.normal(size=(n_rows, dim))
        z_int = rng.uniform(0, 1, dim)
        b = A @ z_int + rng.uniform(0.05, 1.0, n_rows)
        z0 = rng.normal(0, 2, dim)
        res = project(z0, A, b)
        G = np.vstack([A, -np.eye(dim)])
        h = np.concatenate([b, np.zeros(dim)])
        oracle = _projection_oracle(z0, G, h)
        ok &= oracle is not None and np.allclose(res.z, oracle, atol=1e-8)
        again = project(res.z, A, b).z
        ok &= np.allclose(again, res.z, atol=1e-8)
    _report(4, "projection matches exhaustive active-set oracle", bool(ok))


def test_criterion_5_solver_feasibility_and_throughput(scenario, schedule):
    """Every solver output satisfies Az <= b, z >= 0, and the floors."""
    allocs, *_ = plan_allocations(scenario, schedule, "optimized", seed=0)
    layout = AllocationLayout.from_scenario(scenario)
    ok = True
    for k, z in enumerate(allocs):
        A, b, _ = assemble_constraints(scenario, schedule, k)
        ok &= bool(np.all(A @ z <= b + 1e-9))
        ok &= bool(np.all(z >= 0))
        for j in range(scenario.comm.num_links):
            r = throughput_r(j, z, scenario, layout, schedule.counts[:, :, k])
            ok &= r >= scenario.comm.floor(j, k) - 1e-9
    _report(5, "solver feasibility and throughput floors", bool(ok))


def test_criterion_6_policy_ordering(scenario):
    """Metric dominance at every fusion index and the average-RMSE ordering
    optimized < uniform < random over 100 common-random-number trials."""
    start = time.perf_counter()
    result = compare_allocations(scenario,
                                 ["optimized", "uniform", "random"],
                                 n_trials=100, seed=0)
    elapsed = time.perf_counter() - start
    opt = result.policies["optimized"]
    uni = result.policies["uniform"]
    rnd = result.policies["random"]
    ok = all(go >= gu for go, gu in zip(opt.g_values, uni.g_values))
    ok &= all(go >= gr for go, gr in zip(opt.g_values, rnd.g_values))
    ok &= opt.avg_rmse < uni.avg_rmse < rnd.avg_rmse
    ok &= elapsed < 300.0
    _report(6, f"policy ordering, RMSE {opt.avg_rmse:.1f} < "
               f"{uni.avg_rmse:.1f} < {rnd.avg_rmse:.1f} "
               f"({elapsed:.0f} s)", bool(ok))


def test_criterion_7_fusion_efficiency():
    """ILS error second moment within [1.0, 1.3] x CRB over 1000 trials.

    Bearing-dominated triangulation from a compact 3-radar cluster at
    moderate bearing noise: nonlinearity inflates the estimator spread
    above the bound, but a sound implementation stays within 30%.
    """
    radars = np.array([[0.0, 0.0], [800.0, 0.0], [0.0, 800.0]])
    true_state = np.array([4000.0, 80.0, 5000.0, -60.0])
    t_fuse = 6.0
    cov = np.array([1e8, 2.5e-4])
    times = np.array([4.0, 6.0])

    def stack(rng=None):
        vals, tms, rxy, cd = [], [], [], []
        for xy in radars:
            for t in times:
                F = transition_matrix(t - t_fuse)
                s = F @ true_state
                r, th = measure(s, xy)
                if rng is not None:
                    n = np.sqrt(cov) * rng.standard_normal(2)
                    r, th = r + n[0], th + n[1]
                vals.append([r, th])
                tms.append(t)
                rxy.append(xy)
                cd.append(cov)
        return StackedMeasurements(values=np.array(vals),
                                   times=np.array(tms),
                                   radar_xy=np.array(rxy),
                                   cov_diag=np.array(cd),
                                   t_fuse=t_fuse)

    crb_trace = np.trace(np.linalg.inv(fim(stack(), true_state)))
    rng = np.random.default_rng(107)
    errs = np.empty((1000, 4))
    for n in range(1000):
        cm = ils_mle(stack(rng), true_state)
        errs[n] = cm.estimate - true_state
    ratio = np.trace(errs.T @ errs / len(errs)) / crb_trace
    ok = 1.0 <= ratio <= 1.3
    _report(7, f"fusion efficiency, sample/CRB trace ratio {ratio:.3f}",
            bool(ok))


def test_criterion_8_zero_data_information_chain():
    """With no data term, the information recursion equals KF covariance
    prediction in information form over 100 chained steps."""
    rng = np.random.default_rng(108)
    F = transition_matrix(6.0)
    gam = process_noise_cov(6.0, 1.0)
    W = rng.normal(size=(4, 4))
    B = 1e-2 * (W @ W.T + 0.1 * np.eye(4))
    P = np.linalg.inv(B)
    ok = True
    for _ in range(100):
        B = prior_information(B, F, gam)
        P = F @ P @ F.T + gam
        ok &= np.allclose(B, np.linalg.inv(P), rtol=1e-10, atol=0.0)
    _report(8, "zero-data information chain equals KF prediction", bool(ok))
