"""Resource allocation over one fusion interval.

Builds the Bayesian-CRB maximin problem for the decision vector
[MMR powers | PAR dwell times | downlink powers], and solves it by
alternating a closed-form slack-matrix descent with projected gradient
ascent on the resulting sum of linear-fractional functions.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .fusion import inv_psd
from .scenario import MeasurementSchedule, RadarKind, Scenario
from .sensing import const_kernel, info_kernel_D


class InfeasibleError(RuntimeError):
    """The constraint polyhedron is empty (certificate in the message)."""


# ---------------------------------------------------------------------------
# decision-vector layout


@dataclass(frozen=True, eq=False)
class AllocationLayout:
    """Index layout of the decision vector z and the per-radar energy map.

    z is [MMR powers | PAR dwell times | J downlink powers], each radar block
    radar-major, target-minor.  Radar i's echo energy P*T on target q is
    z[var[i, q]] * factor[i]: an MMR optimizes its power (factor = its fixed
    dwell), a PAR its dwell time (factor = its fixed power).  An MSR optimizes
    neither: its var row is -1 and its energy is fixed_energy[i].  budget[i]
    bounds the count-weighted sum of radar i's variables (an MMR's power
    budget, a PAR's time budget).
    """

    mmr: tuple
    par: tuple
    n_targets: int
    n_links: int
    var: np.ndarray           # (N, Q) int, index into z or -1
    factor: np.ndarray        # (N,)
    fixed_energy: np.ndarray  # (N,)
    budget: np.ndarray        # (N,)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "AllocationLayout":
        n, q_n = scenario.n_radars, scenario.n_targets
        factor, fixed_energy, budget = np.zeros(n), np.zeros(n), np.zeros(n)
        mmr, par = [], []
        for i, node in enumerate(scenario.radars):
            if node.kind is RadarKind.MMR:
                mmr.append(i)
                factor[i], budget[i] = node.fixed_dwell, node.power_budget
            elif node.kind is RadarKind.PAR:
                par.append(i)
                factor[i], budget[i] = node.fixed_power, node.time_budget
            else:
                fixed_energy[i] = node.fixed_power * node.fixed_dwell
        var = np.full((n, q_n), -1)
        for block, i in enumerate(mmr + par):
            var[i] = block * q_n + np.arange(q_n)
        return cls(mmr=tuple(mmr), par=tuple(par), n_targets=q_n,
                   n_links=scenario.comm.num_links, var=var, factor=factor,
                   fixed_energy=fixed_energy, budget=budget)

    @property
    def n_radar_vars(self) -> int:
        return (len(self.mmr) + len(self.par)) * self.n_targets

    @property
    def dim(self) -> int:
        return self.n_radar_vars + self.n_links

    def comm_block(self, z: np.ndarray) -> np.ndarray:
        return z[self.n_radar_vars:]

    def energies(self, z: np.ndarray) -> np.ndarray:
        """(N, Q) echo energy P*T of every radar on every target under z."""
        return np.where(self.var >= 0, z[self.var] * self.factor[:, None],
                        self.fixed_energy[:, None])


def lambda_diag(t0: float) -> np.ndarray:
    """Diagonal of the unit-balancing weight: velocity scaled by T0."""
    return np.array([1.0, t0, 1.0, t0])


def interference_denominators(scenario: Scenario, layout: AllocationLayout,
                              z: np.ndarray) -> np.ndarray:
    """(N,) per-radar denominator sum_j |alpha^c|^2 P_c^j + sigma_r^2."""
    pc = layout.comm_block(z)
    alpha = scenario.comm.alpha_c_sq
    noise = np.array([r.noise_var for r in scenario.radars])
    return alpha @ pc + noise


def info_scale(scenario: Scenario, layout: AllocationLayout,
               z: np.ndarray) -> np.ndarray:
    """(N, Q) weight P*T / (sum_j |alpha^c|^2 P_c^j + sigma_r^2) of each
    radar's information kernel on each target.  A measurement's covariance
    is its constant kernel divided by this weight."""
    return (layout.energies(z)
            / interference_denominators(scenario, layout, z)[:, None])


# ---------------------------------------------------------------------------
# information assembly


def compute_kernels(scenario: Scenario, schedule: MeasurementSchedule,
                    k: int, predicted_states: list[np.ndarray]) -> np.ndarray:
    """(Q, N, 4, 4) information kernels D for interval k, evaluated at each
    target's predicted prior state."""
    q_n, n = scenario.n_targets, scenario.n_radars
    _, t_fuse = scenario.grid.boundary(k)
    D = np.zeros((q_n, n, 4, 4))
    for q in range(q_n):
        for i, radar in enumerate(scenario.radars):
            kern = const_kernel(radar, scenario.targets[q].rcs[i])
            D[q, i] = info_kernel_D(radar.position, schedule.times(i, q, k),
                                    t_fuse, predicted_states[q], kern)
    return D


def bayesian_B(z: np.ndarray, kernels: np.ndarray,
               prior_infos: list[np.ndarray], scenario: Scenario,
               layout: AllocationLayout) -> list[np.ndarray]:
    """Per-target Bayesian information B^q(z) = sum_i scale_i D_i + prior."""
    B = np.asarray(prior_infos) + np.einsum(
        "iq,qiab->qab", info_scale(scenario, layout, z), kernels)
    return list(0.5 * (B + np.swapaxes(B, 1, 2)))


def crb_metric(b_mats: list[np.ndarray], t0: float, jitter: float = 0.0) -> float:
    """Bayesian-CRB tracking metric of per-target informations B^q: sum over
    targets of 1 / Tr(Lambda B^{-1} Lambda^T).  Larger is better."""
    lam2 = lambda_diag(t0) ** 2
    return sum(1.0 / float(lam2 @ np.diag(inv_psd(B, jitter)[0]))
               for B in b_mats)


def objective_g(z: np.ndarray, kernels: np.ndarray,
                prior_infos: list[np.ndarray], scenario: Scenario,
                layout: AllocationLayout, jitter: float = 0.0) -> float:
    """crb_metric of the Bayesian information under allocation z."""
    return crb_metric(bayesian_B(z, kernels, prior_infos, scenario, layout),
                      scenario.grid.interval_length, jitter)


def throughput_r(j: int, z: np.ndarray, scenario: Scenario,
                 layout: AllocationLayout, counts_k: np.ndarray) -> float:
    """Achieved log-SINR throughput (nats) of downlink j under allocation z,
    given the interval's measurement counts (N, Q)."""
    t0 = scenario.grid.interval_length
    interference = np.einsum("iq,i,iq->", counts_k, scenario.comm.alpha_r_sq[j],
                             layout.energies(z))
    pc = layout.comm_block(z)[j]
    return float(np.log1p(pc * t0 / (interference + scenario.comm.noise_var * t0)))


# ---------------------------------------------------------------------------
# constraints


def assemble_constraints(scenario: Scenario, schedule: MeasurementSchedule,
                         k: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Linear inequality system A z <= b for interval k.

    Rows: one linearized throughput floor per link, one power budget per MMR,
    one dwell budget per PAR, one base-station power budget.  Raises
    InfeasibleError when a throughput row is violated even with zero
    optimized radar resources and the full base-station budget on that link.
    """
    layout = AllocationLayout.from_scenario(scenario)
    counts = schedule.counts[:, :, k]
    t0 = scenario.grid.interval_length
    comm = scenario.comm
    links = np.arange(comm.num_links)
    opt = layout.var >= 0

    # expm1(eps_j) * (radar interference + sigma_c^2 T0) <= P_c^j T0, with
    # the interference split into optimized and fixed (MSR) energies
    gain = np.array([np.expm1(comm.floor(j, k)) for j in links])
    coef = (gain[:, None, None] * counts * comm.alpha_r_sq[:, :, None]
            * layout.factor[:, None])
    thr = np.zeros((comm.num_links, layout.dim))
    thr[:, layout.var[opt]] = coef[:, opt]
    thr[links, layout.n_radar_vars + links] = -t0
    fixed = np.einsum("iq,ji,i->j", counts, comm.alpha_r_sq, layout.fixed_energy)
    bound = -gain * (fixed + comm.noise_var * t0)
    unreachable = np.flatnonzero(bound < -t0 * comm.power_budget)
    if unreachable.size:
        j = unreachable[0]
        raise InfeasibleError(
            f"throughput floor of link {j} unreachable: fixed interference "
            f"alone requires more than the base-station budget "
            f"(row 'throughput[{j}]')")
    rows, rhs = list(thr), list(bound)
    labels = [f"throughput[{j}]" for j in links]

    for i in layout.mmr + layout.par:
        a = np.zeros(layout.dim)
        a[layout.var[i]] = counts[i]
        rows.append(a)
        rhs.append(layout.budget[i])
        labels.append(f"{'power' if i in layout.mmr else 'time'}_budget[{i}]")

    a = np.zeros(layout.dim)
    a[layout.n_radar_vars:] = 1.0
    rows.append(a)
    rhs.append(comm.power_budget)
    labels.append("bs_power_budget")

    return np.array(rows), np.array(rhs), labels


# ---------------------------------------------------------------------------
# inner descent and fractional form


def inner_v_update(B: np.ndarray, lam_inv: np.ndarray,
                   jitter: float = 0.0) -> np.ndarray:
    """Closed-form minimizer of the trace-constrained inner problem:
    normalized inverse of diag(lam_inv) B diag(lam_inv)."""
    A = (lam_inv[:, None] * B) * lam_inv[None, :]
    Ainv, _ = inv_psd(A, jitter)
    V = Ainv / np.trace(Ainv)
    # renormalize so the trace constraint holds exactly
    return V / np.trace(V)


@dataclass
class FractionalProgram:
    """Data of the outer maximization: sum_i (c_i^T z + d_i)/(e_i^T z + s_i)
    plus a z-independent constant."""

    c: np.ndarray          # (N, dim)
    d: np.ndarray          # (N,)
    e: np.ndarray          # (N, dim)
    denom_const: np.ndarray  # (N,) receiver noise variances
    constant: float
    clamped: int = 0       # count of negative weights clamped to zero


def assemble_fractional(v_mats: list[np.ndarray], kernels: np.ndarray,
                        prior_infos: list[np.ndarray], scenario: Scenario,
                        layout: AllocationLayout) -> FractionalProgram:
    """Rewrite the outer objective for fixed slack matrices as a sum of
    linear-fractional terms in z."""
    lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)
    lv = lam_inv[None, :, None] * np.asarray(v_mats)  # Lambda^{-1} V^q
    constant = float(np.einsum("qai,qab,qbi->", lv, np.asarray(prior_infos), lv))
    # w[i, q] = Tr(lv_q^T D_qi lv_q), the weight of radar i's energy on q
    w = np.einsum("qai,qnab,qbi->nq", lv, kernels, lv)
    clamped = int(np.count_nonzero(w < 0))
    if clamped:
        warnings.warn(f"clamped {clamped} negative fractional weights to zero",
                      RuntimeWarning, stacklevel=2)
        w = np.maximum(w, 0.0)

    opt = layout.var >= 0
    c = np.zeros((scenario.n_radars, layout.dim))
    c[np.nonzero(opt)[0], layout.var[opt]] = (w * layout.factor[:, None])[opt]
    d = (w * layout.fixed_energy[:, None]).sum(axis=1)
    e = np.zeros_like(c)
    e[:, layout.n_radar_vars:] = scenario.comm.alpha_c_sq
    denom_const = np.array([r.noise_var for r in scenario.radars])
    return FractionalProgram(c=c, d=d, e=e, denom_const=denom_const,
                             constant=constant, clamped=clamped)


def f_value(fp: FractionalProgram, z: np.ndarray) -> float:
    num = fp.c @ z + fp.d
    den = fp.e @ z + fp.denom_const
    return float(np.sum(num / den)) + fp.constant


def grad_f(fp: FractionalProgram, z: np.ndarray) -> np.ndarray:
    """Exact quotient-rule gradient of the fractional objective."""
    num = fp.c @ z + fp.d
    den = fp.e @ z + fp.denom_const
    return ((fp.c * den[:, None] - fp.e * num[:, None])
            / (den ** 2)[:, None]).sum(axis=0)


# ---------------------------------------------------------------------------
# Euclidean projection onto {A z <= b, z >= 0}


@dataclass
class ProjectionResult:
    z: np.ndarray
    active: list[int]          # indices into the stacked rows [A; -I]
    multipliers: np.ndarray    # KKT multipliers of the stacked rows


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set solution of min ||E x - f|| s.t. x >= 0."""
    m = E.shape[1]
    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    w_tol = 1e-11 * max(1.0, float(np.abs(E).max()) * float(np.abs(f).max()))
    for _ in range(3 * m + 10):
        w = E.T @ (f - E @ x)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if not np.isfinite(w[j]) or w[j] <= w_tol:
            break
        passive[j] = True
        for _ in range(3 * m + 10):
            idx = np.flatnonzero(passive)
            s = np.zeros(m)
            sol, *_ = np.linalg.lstsq(E[:, idx], f, rcond=None)
            s[idx] = sol
            if np.all(s[idx] > 0):
                x = s
                break
            bad = idx[s[idx] <= 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.min(x[bad] / (x[bad] - s[bad]))
            x = x + alpha * (s - x)
            passive &= x > 1e-14
            x[~passive] = 0.0
    return x


def _certify_infeasible(A: np.ndarray, b: np.ndarray) -> Optional[str]:
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                  bounds=[(0, None)] * A.shape[1], method="highs")
    if res.status == 2:
        return res.message
    return None


def project(z_raw: np.ndarray, A: np.ndarray, b: np.ndarray,
            tol: float = 1e-12, _depth: int = 0) -> ProjectionResult:
    """Euclidean projection onto {z : A z <= b, z >= 0}.

    Solved as a least-distance program reduced to nonnegative least squares
    (the classical Lawson-Hanson construction), followed by an exact
    equality-constrained polish on the active rows.  Raises InfeasibleError
    with an LP certificate when the polyhedron is empty.
    """
    z_raw = np.asarray(z_raw, dtype=float)
    dim = z_raw.size
    G = np.vstack([A, -np.eye(dim)])
    h = np.concatenate([b, np.zeros(dim)])
    m = G.shape[0]

    v = G @ z_raw - h
    if np.all(v <= tol * max(1.0, np.abs(h).max())):
        # already feasible: return unchanged with an exact-zero dual
        return ProjectionResult(z=z_raw.copy(), active=[],
                                multipliers=np.zeros(m))
    scale = max(1.0, np.abs(v).max())

    # min ||y|| s.t. G y >= v with y = z_raw - z, via NNLS on [G^T; v^T];
    # rows normalized so mixed budget/bound scales stay well conditioned
    norms = np.sqrt(np.sum(G * G, axis=1) + v * v)
    norms[norms == 0] = 1.0
    Gn = G / norms[:, None]
    vn = v / norms
    E = np.vstack([Gn.T, vn[None, :]])
    f = np.zeros(dim + 1)
    f[-1] = 1.0
    u = _nnls(E, f)
    r = E @ u - f
    if abs(r[-1]) <= 1e-12:
        cert = _certify_infeasible(A, b)
        detail = cert or "no separating residual in the least-distance reduction"
        raise InfeasibleError(f"empty polyhedron: {detail}")
    z = z_raw - (-r[:-1] / r[-1])

    # polish: exact projection onto the affine hull of the NNLS support
    active = np.flatnonzero(u > 0)
    mult = np.zeros(0)
    if active.size:
        Ga = G[active]
        resid = Ga @ z_raw - h[active]
        mult, *_ = np.linalg.lstsq(Ga @ Ga.T, resid, rcond=None)
        z_pol = z_raw - Ga.T @ mult
        if np.max(G @ z_pol - h) <= 1e-9 * scale:
            z = z_pol
    viol = np.max(G @ z - h)
    if viol > 1e-8 * scale:
        cert = _certify_infeasible(A, b)
        if cert is not None:
            raise InfeasibleError(f"empty polyhedron: {cert}")
        if _depth < 4:
            # distant inputs lose accuracy in the back-substitution; the
            # approximate result is far closer, so refine from there
            return project(z, A, b, tol, _depth + 1)
        raise RuntimeError(f"projection failed to converge (violation {viol:.3e})")
    full = np.zeros(m)
    if active.size and mult.size == active.size:
        full[active] = mult
    return ProjectionResult(z=z, active=list(active), multipliers=full)


# ---------------------------------------------------------------------------
# baselines


def baseline_uniform(scenario: Scenario, schedule: MeasurementSchedule,
                     k: int) -> np.ndarray:
    """Even, measurement-count-weighted split of every budget; scaled down
    toward zero radar resources if the throughput floors demand it."""
    layout = AllocationLayout.from_scenario(scenario)
    counts = schedule.counts[:, :, k]
    z = np.zeros(layout.dim)
    for i in layout.mmr + layout.par:
        total_m = counts[i].sum()
        z[layout.var[i]] = layout.budget[i] / total_m if total_m > 0 else 0.0
    z[layout.n_radar_vars:] = scenario.comm.power_budget / scenario.comm.num_links

    def ok(rho: float) -> bool:
        zz = z.copy()
        zz[:layout.n_radar_vars] *= rho
        return all(throughput_r(j, zz, scenario, layout, counts)
                   >= scenario.comm.floor(j, k)
                   for j in range(scenario.comm.num_links))

    if ok(1.0):
        return z
    if not ok(0.0):
        raise InfeasibleError(
            "uniform allocation infeasible even with zero radar resources: "
            "throughput floor unreachable at even comm split")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    z[:layout.n_radar_vars] *= lo
    return z


def baseline_random(scenario: Scenario, schedule: MeasurementSchedule,
                    k: int, rng: np.random.Generator,
                    project_to_feasible: bool = True) -> np.ndarray:
    """Random direction per resource block, scaled so each budget binds.

    With project_to_feasible (default) the draw is projected onto the
    constraint polyhedron; without it, throughput floors may be violated.
    """
    layout = AllocationLayout.from_scenario(scenario)
    counts = schedule.counts[:, :, k]
    z = np.zeros(layout.dim)
    for i in layout.mmr + layout.par:
        u = rng.uniform(0.0, 1.0, scenario.n_targets)
        denom = float(counts[i] @ u)
        if denom > 0:
            u *= layout.budget[i] / denom
        z[layout.var[i]] = u
    u = rng.uniform(0.0, 1.0, scenario.comm.num_links)
    z[layout.n_radar_vars:] = u * scenario.comm.power_budget / u.sum()
    if project_to_feasible:
        A, b, _ = assemble_constraints(scenario, schedule, k)
        z = project(z, A, b).z
    return z


# ---------------------------------------------------------------------------
# alternating descent-ascent solver


@dataclass
class AllocatorConfig:
    step_size: float = 5e-2     # relative to per-coordinate budget scale
    obj_tol: float = 1e-6       # relative objective-difference stop
    max_outer: int = 500
    proj_tol: float = 1e-9
    jitter: float = 1e-9
    max_halvings: int = 20
    patience: int = 25          # stop after this many iterations without a
                                # new best metric value (descent-ascent cycles)


@dataclass
class PlanningPrior:
    """Per-target predicted prior for one interval: the predicted state (for
    Jacobian evaluation) and the predicted Bayesian information."""

    state: np.ndarray  # (4,)
    info: np.ndarray   # (4, 4)


def _budget_scale(scenario: Scenario, layout: AllocationLayout,
                  counts: np.ndarray) -> np.ndarray:
    """Diagonal preconditioner: each coordinate scaled by its natural budget
    share so the step size is unitless."""
    s = np.ones(layout.dim)
    for i in layout.mmr + layout.par:
        s[layout.var[i]] = layout.budget[i] / max(1, counts[i].sum())
    s[layout.n_radar_vars:] = scenario.comm.power_budget / scenario.comm.num_links
    return s


def adam_solve(scenario: Scenario, schedule: MeasurementSchedule, k: int,
               priors: list[PlanningPrior],
               config: Optional[AllocatorConfig] = None,
               z0: Optional[np.ndarray] = None
               ) -> tuple[np.ndarray, list[dict]]:
    """Alternating descent-ascent for one fusion interval.

    Alternates the closed-form slack update with a projected, preconditioned
    gradient-ascent step on the fractional rewrite until the objective
    difference falls below tolerance.  Returns the best feasible iterate seen
    (by the CRB metric) and the per-iteration trace.
    """
    cfg = config or AllocatorConfig()
    layout = AllocationLayout.from_scenario(scenario)
    A, b, labels = assemble_constraints(scenario, schedule, k)
    counts = schedule.counts[:, :, k]
    kernels = compute_kernels(scenario, schedule, k, [p.state for p in priors])
    prior_infos = [p.info for p in priors]
    lam_inv = 1.0 / lambda_diag(scenario.grid.interval_length)

    # all iterates live in budget-normalized coordinates u = z / scale, so the
    # projection geometry and the step size are unitless across watts/seconds
    precond = _budget_scale(scenario, layout, counts)
    A_u = A * precond[None, :]

    if z0 is None:
        z0 = baseline_uniform(scenario, schedule, k)
    u = project(np.asarray(z0, dtype=float) / precond, A_u, b).z
    z = precond * u
    g_cur = objective_g(z, kernels, prior_infos, scenario, layout, cfg.jitter)
    best_g, best_z, best_it = g_cur, z.copy(), -1
    trace: list[dict] = []

    for it in range(cfg.max_outer):
        b_mats = bayesian_B(z, kernels, prior_infos, scenario, layout)
        v_mats = [inner_v_update(B, lam_inv, cfg.jitter) for B in b_mats]
        fp = assemble_fractional(v_mats, kernels, prior_infos, scenario, layout)
        f_cur = f_value(fp, z)
        if not np.isfinite(f_cur):
            raise RuntimeError(f"non-finite objective at iteration {it}")

        grad_u = precond * grad_f(fp, z)
        peak = np.max(np.abs(grad_u))
        direction = grad_u / peak if peak > 0 else np.zeros_like(u)

        # two-sided line search on the projection arc: halve while the step
        # decreases f, then grow while it keeps improving (budget-clamped
        # coordinates stall the nominal step otherwise)
        eta = cfg.step_size
        proj = project(u + eta * direction, A_u, b)
        cand = proj.z
        f_cand = f_value(fp, precond * cand)
        if f_cand < f_cur:
            for _ in range(cfg.max_halvings):
                eta *= 0.5
                proj = project(u + eta * direction, A_u, b)
                cand = proj.z
                f_cand = f_value(fp, precond * cand)
                if f_cand >= f_cur:
                    break
        else:
            for _ in range(min(cfg.max_halvings, 12)):
                trial = project(u + 2.0 * eta * direction, A_u, b)
                f_trial = f_value(fp, precond * trial.z)
                if f_trial <= f_cand:
                    break
                eta *= 2.0
                proj, cand, f_cand = trial, trial.z, f_trial

        step_norm = float(np.linalg.norm(cand - u))
        u = cand
        z = precond * u
        f_new = f_value(fp, z)
        g_cur = objective_g(z, kernels, prior_infos, scenario, layout, cfg.jitter)
        trace.append({"iteration": it, "f": f_new, "g": g_cur,
                      "step_norm": step_norm,
                      "active": [labels[a] for a in (proj.active if proj else [])
                                 if a < len(labels)]})
        if g_cur > best_g * (1.0 + 1e-10):
            best_g, best_z, best_it = g_cur, z.copy(), it
        if abs(f_new - f_cur) <= cfg.obj_tol * max(abs(f_cur), 1e-300):
            break
        if it - best_it >= cfg.patience:
            break

    # polish in original coordinates: the normalized-space projection can
    # leave O(1e-7) constraint residuals on badly scaled rows
    best_z = project(best_z, A, b).z
    np.clip(best_z, 0.0, None, out=best_z)
    return best_z, trace
