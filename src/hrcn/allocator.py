"""Resource allocation over one fusion interval.

IntervalProblem holds one interval's Bayesian-CRB maximin problem over the
decision vector [MMR powers | PAR dwell times | downlink powers], built once
and read by the baselines, the metric g and adam_solve.  adam_solve
alternates a closed-form slack-matrix descent with projected gradient ascent
on the resulting sum of linear-fractional functions, each step's first probe
at the Barzilai-Borwein length of the step before.
"""

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fusion import inv_psd, symmetrize
from .scenario import (RESOURCE_FIELDS, MeasurementSchedule, RadarKind,
                       Scenario)
from .sensing import info_kernel_D


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
    budget, a PAR's time budget).  noise_var and alpha_c_sq are the
    receiver noise and downlink interference gains of the noise law
    info_scale, kept here so it is not rebuilt from the scenario per call.
    """

    mmr: tuple
    par: tuple
    n_targets: int
    n_links: int
    var: np.ndarray           # (N, Q) int, index into z or -1
    opt: np.ndarray           # (N, Q) bool, var >= 0: the optimized pairs
    cols: np.ndarray          # var[opt], their indices into z in that order
    factor: np.ndarray        # (N,)
    fixed_energy: np.ndarray  # (N,)
    budget: np.ndarray        # (N,)
    noise_var: np.ndarray     # (N,) sigma_r^2 of each radar's receiver
    alpha_c_sq: np.ndarray    # (N, J) |alpha^c|^2, downlink -> radar

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "AllocationLayout":
        n, q_n = scenario.n_radars, scenario.n_targets
        factor, fixed_energy, budget = np.zeros(n), np.zeros(n), np.zeros(n)
        blocks = {kind: [] for kind in RESOURCE_FIELDS}
        for i, node in enumerate(scenario.radars):
            blocks[node.kind].append(i)
            fixed, other = (getattr(node, name)
                            for name in RESOURCE_FIELDS[node.kind])
            if node.kind is RadarKind.MSR:
                fixed_energy[i] = fixed * other
            else:
                factor[i], budget[i] = fixed, other
        mmr, par = blocks[RadarKind.MMR], blocks[RadarKind.PAR]
        var = np.full((n, q_n), -1)
        for block, i in enumerate(mmr + par):
            var[i] = block * q_n + np.arange(q_n)
        opt = var >= 0
        return cls(mmr=tuple(mmr), par=tuple(par), n_targets=q_n,
                   n_links=scenario.comm.num_links, var=var, opt=opt,
                   cols=var[opt], factor=factor,
                   fixed_energy=fixed_energy, budget=budget,
                   noise_var=np.array([r.noise_var for r in scenario.radars]),
                   alpha_c_sq=scenario.comm.alpha_c_sq)

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
        return np.where(self.opt, z[self.var] * self.factor[:, None],
                        self.fixed_energy[:, None])


def lambda_diag(t0: float) -> np.ndarray:
    """Diagonal of the unit-balancing weight: velocity scaled by T0."""
    return np.array([1.0, t0, 1.0, t0])


def interference_denominators(layout: AllocationLayout,
                              z: np.ndarray) -> np.ndarray:
    """(N,) per-radar denominator sum_j |alpha^c|^2 P_c^j + sigma_r^2."""
    return layout.alpha_c_sq @ layout.comm_block(z) + layout.noise_var


def info_scale(layout: AllocationLayout, z: np.ndarray) -> np.ndarray:
    """(N, Q) weight P*T / (sum_j |alpha^c|^2 P_c^j + sigma_r^2) of each
    radar's information kernel on each target.  A measurement's covariance
    is its constant kernel divided by this weight."""
    return (layout.energies(z)
            / interference_denominators(layout, z)[:, None])


# ---------------------------------------------------------------------------
# information assembly


def compute_kernels(scenario: Scenario, schedule: MeasurementSchedule,
                    predicted_states: np.ndarray) -> np.ndarray:
    """(K', Q, N, 4, 4) information kernels D of the intervals 0..K'-1: each
    target's schedule rows evaluated at its predicted prior state, from
    predicted_states (K', Q, 4).  The row sets of one length share one
    info_kernel_D call, with no padding rows, so each keeps the bits of a
    call of its own whatever order BLAS sums in."""
    k_n, q_n = np.shape(predicted_states)[:2]
    states = np.reshape(predicted_states, (-1, 4))
    t_fuse = np.repeat(scenario.grid.boundary(np.arange(k_n))[1], q_n)
    bounds = schedule.bounds[:k_n * q_n + 1]
    lengths = np.diff(bounds)
    # each (interval, target) block's radar offsets into its rows
    start = np.zeros((len(lengths), scenario.n_radars + 1), dtype=int)
    np.cumsum(schedule.counts[:, :, :k_n].T.reshape(len(lengths), -1),
              axis=1, out=start[:, 1:])
    kernels = np.empty((len(lengths), scenario.n_radars, 4, 4))
    for m in set(lengths.tolist()):
        at = np.flatnonzero(lengths == m)
        rows = schedule.rows[bounds[at, None] + np.arange(m)]
        kernels[at] = info_kernel_D(rows, start[at], t_fuse[at, None],
                                    states[at])
    return kernels.reshape(k_n, q_n, -1, 4, 4)


def bayesian_B(z: np.ndarray, problem: "IntervalProblem") -> np.ndarray:
    """(Q, 4, 4) per-target Bayesian information
    B^q(z) = sum_i scale_i D_i + prior."""
    return symmetrize(problem.prior_infos + np.einsum(
        "iq,qiab->qab", info_scale(problem.layout, z), problem.kernels))


def _weighted_crb(b_mats: np.ndarray, lam: np.ndarray):
    """(B^{-1}, c, g) of the informations b_mats (..., 4, 4): each inverse, a
    singular B inverted with inv_psd's jitter, its weighted CRB trace
    c = Tr(Lambda B^{-1} Lambda^T) with Lambda = diag(lam), and the metric
    g = sum of 1 / c."""
    inv = inv_psd(np.asarray(b_mats))[0]
    crb = (lam ** 2 @ np.diagonal(inv, axis1=-2, axis2=-1)[..., None])[..., 0]
    return inv, crb, sum(1.0 / c for c in np.ravel(crb).tolist())


def crb_metric_and_bound(b_mats: np.ndarray, t0: float
                         ) -> tuple[float, float]:
    """Bayesian-CRB tracking metric g of per-target informations B^q, the
    sum over targets of 1 / Tr(Lambda B^{-1} Lambda^T) (larger is better),
    and from the same inverses their root-BCRB, the sum of the square roots
    of those traces, which the weighted tracking RMSE is scored against."""
    _, crb, g = _weighted_crb(b_mats, lambda_diag(t0))
    return g, sum(float(np.sqrt(c)) for c in crb.tolist())


def objective_g(z: np.ndarray, problem: "IntervalProblem") -> float:
    """The metric g of the Bayesian information under allocation z."""
    return _weighted_crb(bayesian_B(z, problem), lambda_diag(problem.t0))[2]


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


def _constraint_rows(scenario: Scenario, layout: AllocationLayout,
                     counts: np.ndarray, ks
                     ) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Linear inequality systems A z <= b, (K', R, dim) and (K', R), of the
    intervals ks (K',) with measurement counts (K', N, Q), their row labels
    and preconditioners (K', dim), each coordinate's even budget share.

    Rows: one linearized throughput floor per link, one power budget per MMR,
    one dwell budget per PAR, one base-station power budget.
    """
    t0 = scenario.grid.interval_length
    comm = scenario.comm
    n_links, n_r = comm.num_links, layout.n_radar_vars
    links = np.arange(n_links)
    opt, cols = layout.opt, layout.cols
    radars = list(layout.mmr + layout.par)  # in the order of their blocks
    alpha = comm.alpha_r_sq
    gain = np.expm1(comm.floors(ks))
    A = np.zeros((len(ks), n_links + len(radars) + 1, layout.dim))
    b = np.empty(A.shape[:2])

    # expm1(eps_j) * (radar interference + sigma_c^2 T0) <= P_c^j T0, with
    # the interference split into optimized and fixed (MSR) energies
    coef = (gain[:, :, None, None] * counts[:, None] * alpha[:, :, None]
            * layout.factor[:, None])
    A[:, :n_links, cols] = coef[:, :, opt]
    A[:, links, n_r + links] = -t0
    fixed = np.einsum("kiq,ji,i->kj", counts, alpha, layout.fixed_energy)
    b[:, :n_links] = -gain * (fixed + comm.noise_var * t0)
    # each radar's budget row weighs its block of z by the counts
    A[:, n_links + cols // layout.n_targets, cols] = counts[:, opt]
    b[:, n_links:-1] = layout.budget[radars]
    A[:, -1, n_r:] = 1.0
    b[:, -1] = comm.power_budget
    labels = ([f"throughput[{j}]" for j in links]
              + [f"{'power' if i in layout.mmr else 'time'}_budget[{i}]"
                 for i in radars] + ["bs_power_budget"])
    precond = np.empty((len(ks), layout.dim))
    precond[:, cols] = (layout.budget / np.maximum(1, counts.sum(axis=-1))
                        )[:, np.nonzero(opt)[0]]
    precond[:, n_r:] = comm.power_budget / n_links
    return A, b, labels, precond


def assemble_constraints(scenario: Scenario, schedule: MeasurementSchedule,
                         k: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The constraint rows (A, b, labels) of interval k that
    IntervalProblem.build assembles, for a caller that holds no problem."""
    p = IntervalProblem.build(scenario, schedule, k,
                              AllocationLayout.from_scenario(scenario), (), ())
    return p.A, p.b, p.labels


@dataclass(frozen=True, eq=False)
class IntervalProblem:
    """The allocation problem of fusion interval k, built once (see build
    and horizon) and read by the solver, the baselines and the metric g."""

    layout: AllocationLayout
    k: int
    t0: float
    counts: np.ndarray       # (N, Q) measurement counts of the interval
    A: np.ndarray            # constraint rows A z <= b, see _constraint_rows
    b: np.ndarray
    labels: list
    precond: np.ndarray      # (dim,) each coordinate's even budget share
    kernels: np.ndarray      # (Q, N, 4, 4) at the predicted target states
    prior_infos: np.ndarray  # (Q, 4, 4) predicted prior informations

    def __post_init__(self):
        # a floor that all of the base-station budget b[-1] cannot meet
        j = np.flatnonzero(self.b[:self.layout.n_links] < -self.t0 * self.b[-1])
        if j.size:
            raise InfeasibleError(
                f"throughput floor of link {j[0]} unreachable: fixed "
                f"interference alone requires more than the base-station "
                f"budget (row 'throughput[{j[0]}]')")

    @classmethod
    def horizon(cls, scenario: Scenario, schedule: MeasurementSchedule,
                layout: AllocationLayout, ks, kernels) -> list:
        """One constructor per interval ks[i] of ks (K',), which makes its
        problem from prior_infos, with kernels[i] of kernels (K', Q, N, 4, 4);
        every interval's rows and preconditioners are assembled in one pass."""
        counts = schedule.counts[:, :, ks].transpose(2, 0, 1)
        A, b, labels, precond = _constraint_rows(scenario, layout, counts, ks)
        return [functools.partial(
            cls, layout=layout, k=int(k), t0=scenario.grid.interval_length,
            counts=counts[i], A=A[i], b=b[i], labels=labels,
            precond=precond[i], kernels=np.asarray(kernels[i]))
            for i, k in enumerate(ks)]

    @classmethod
    def build(cls, scenario: Scenario, schedule: MeasurementSchedule, k: int,
              layout: AllocationLayout, kernels, prior_infos
              ) -> "IntervalProblem":
        """Interval k's problem: the one-interval case of horizon."""
        return cls.horizon(scenario, schedule, layout, [k], [kernels])[0](
            prior_infos=np.asarray(prior_infos))


# ---------------------------------------------------------------------------
# inner descent and fractional form


def _slack(inv: np.ndarray, crb: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Slack matrices Lambda B^{-1} Lambda / Tr(Lambda B^{-1} Lambda) from the
    inverses and weighted traces of _weighted_crb, Lambda = diag(lam)."""
    return lam[:, None] * inv * lam / np.asarray(crb)[..., None, None]


@dataclass
class FractionalProgram:
    """Data of the outer maximization for fixed slack matrices:
    sum_i num_i(z) / den_i(z) plus a z-independent constant.  Radar i's
    numerator num_i = sum_q w[i, q] E[i, q](z) weighs its echo energies
    (AllocationLayout.energies), and its denominator is
    den_i = alpha_c[i] . P_c + sigma_i^2 (interference_denominators)."""

    layout: AllocationLayout
    w: np.ndarray          # (N, Q) weight of radar i's energy on target q
    constant: float
    # num_i is linear in z: slope[i, q] = w[i, q] factor_i on radar i's
    # variable for target q, 0 on an MSR's row, plus its fixed energies' part
    slope: np.ndarray = field(init=False)      # (N, Q)
    intercept: np.ndarray = field(init=False)  # (N,)

    def __post_init__(self):
        self.slope = self.w * self.layout.factor[:, None]
        self.intercept = self.w.sum(axis=1) * self.layout.fixed_energy


def assemble_fractional(v_mats: np.ndarray,
                        problem: IntervalProblem) -> FractionalProgram:
    """Rewrite the outer objective for fixed slack matrices as a sum of
    linear-fractional terms in z."""
    lam_inv = 1.0 / lambda_diag(problem.t0)
    lv = lam_inv[None, :, None] * np.asarray(v_mats)  # Lambda^{-1} V^q
    constant = float(np.einsum("qai,qab,qbi->", lv, problem.prior_infos, lv))
    # w[i, q] = Tr(lv_q^T D_qi lv_q), the weight of radar i's energy on q
    w = np.einsum("qai,qnab,qbi->nq", lv, problem.kernels, lv)
    clamped = int(np.count_nonzero(w < 0))
    if clamped:
        warnings.warn(f"clamped {clamped} negative fractional weights to zero",
                      RuntimeWarning, stacklevel=2)
        w = np.maximum(w, 0.0)
    return FractionalProgram(layout=problem.layout, w=w, constant=constant)


def _num_den(fp: FractionalProgram, z: np.ndarray):
    """(N,) numerators and denominators of the fractional terms at z.  An
    MSR's var row is -1: its slope 0 weighs z[-1], so a finite z leaves it
    its fixed energies' part."""
    layout = fp.layout
    return ((fp.slope * z[layout.var]).sum(axis=1) + fp.intercept,
            interference_denominators(layout, z))


def f_value(fp: FractionalProgram, z: np.ndarray) -> float:
    num, den = _num_den(fp, z)
    return float((num / den).sum()) + fp.constant


def grad_f(fp: FractionalProgram, z: np.ndarray) -> np.ndarray:
    """Exact quotient-rule gradient of the fractional objective: term i
    moves with radar i's variable on target q by w[i, q] factor_i / den_i,
    and with downlink j's power by -num_i alpha_c[i, j] / den_i^2."""
    layout = fp.layout
    num, den = _num_den(fp, z)
    grad = np.zeros(layout.dim)
    grad[layout.cols] = (fp.slope / den[:, None])[layout.opt]
    grad[layout.n_radar_vars:] = -(num / den ** 2) @ layout.alpha_c_sq
    return grad


# ---------------------------------------------------------------------------
# Euclidean projection onto {A z <= b, z >= 0}


@dataclass
class ProjectionResult:
    z: np.ndarray
    active: list[int]          # indices into the stacked rows [A; -I]


def _eliminate(A: np.ndarray, rows: list[int], x: np.ndarray,
               b: Optional[np.ndarray] = None):
    """(S_A, Z, A_S^T m, m) of the sorted rows S of [A; -I]: its rows S_A of
    A, the coordinates Z of its nonnegativity rows, and m solving
    (A_SF A_SF^T) m = A_SF x - b_S, with A_SF = A_S with the columns Z
    cleared and b_S = 0 for b None (no solve without rows of A)."""
    rows = np.asarray(rows, dtype=int)
    split = rows.searchsorted(A.shape[0])
    on_a, zero = rows[:split], rows[split:] - A.shape[0]
    a_s = A[on_a]
    a_free = a_s.copy()
    a_free[:, zero] = 0.0
    m = a_free @ x if b is None else a_free @ x - b[on_a]
    if on_a.size:
        try:
            m = np.linalg.solve(a_free @ a_free.T, m)
        except np.linalg.LinAlgError:
            # singular: a duplicated row, or a row of A with its support in Z
            m = np.linalg.lstsq(a_free @ a_free.T, m, rcond=None)[0]
    return on_a, zero, a_s.T @ m, m


def _polish(z_raw: np.ndarray, A: np.ndarray, b: np.ndarray,
            rows: list[int]):
    """Exact projection of z_raw onto the affine set of the sorted rows S of
    [A; -I]: A_S z = b_S on the rows S_A of A in S, and z_Z = 0 on the
    coordinates Z whose nonnegativity row is in S.  Only the free coordinates
    move, so S_A's multipliers m solve _eliminate's Gram system at z_raw
    (null-space elimination of the active bounds) and Z's are
    mu_Z = (A_S^T m - z_raw)_Z.  Returns (z = z_raw - A_S^T m with z_Z = 0,
    the multipliers (m, mu_Z) in the order of S, A z - b, S_A)."""
    on_a, zero, step, m = _eliminate(A, rows, z_raw, b)
    z = z_raw - step
    mult = np.concatenate([m, -z[zero]])
    z[zero] = 0.0
    return z, mult, A @ z - b, on_a


def _span(A: np.ndarray, rows: list[int], g: np.ndarray) -> np.ndarray:
    """Coefficients r of g on the sorted rows S of [A; -I], in their order:
    the least-squares solution of G_S^T r = g, eliminated as in _polish."""
    _, zero, step, m = _eliminate(A, rows, g)
    return np.concatenate([m, (step - g)[zero]])


# project's feasibility tolerance, relative to max(1, |b|)
FEASIBILITY_TOL = 1e-12


def _raise_if_farkas(A: np.ndarray, b: np.ndarray, cols: list[int],
                     y: np.ndarray, thresh: float) -> None:
    """Raise InfeasibleError if the ray y over the sorted rows cols of
    [A; -I] is Farkas's certificate that {A z <= b, z >= 0} is empty: its
    weights w on the rows of A are >= 0, w A >= -FEASIBILITY_TOL max(w |A|)
    and w b < -thresh sum(w), so no z >= 0 meets A z <= b within thresh."""
    on_a = [c for c in cols if c < len(b)]
    w, a_s = y[:len(on_a)], A[on_a]
    wb = float(w @ b[on_a])
    if (np.all(w >= 0) and wb < -thresh * w.sum()
            and np.all(w @ a_s >= -FEASIBILITY_TOL * (w @ np.abs(a_s)).max())):
        raise InfeasibleError(f"empty polyhedron: infeasible: rows {on_a} "
                              f"weights {w.tolist()} yᵀb = {wb:.6g}")


def project(z_raw: np.ndarray, A: np.ndarray, b: np.ndarray,
            warm: Optional[list[int]] = None) -> ProjectionResult:
    """Euclidean projection onto {z : A z <= b, z >= 0}.

    Goldfarb and Idnani's dual active-set method ("A numerically stable dual
    method for solving strictly convex quadratic programs", Math.
    Programming 27, 1983) on the stacked rows [A; -I], never formed.  The
    point is always the polish (see _polish) on the active set S, with
    nonnegative multipliers.  While a row is violated by more than
    FEASIBILITY_TOL * max(1, |b|), the most violated row p is added: point
    and multipliers move affinely to the polish on S + p, and a multiplier
    that reaches zero first takes its row out of S on the way.
    For p in the span of S the step is dual only, along p's coefficients on
    S (see _span).  If no multiplier falls along it, p cannot be added and
    that dual ray is Farkas's certificate that the polyhedron is empty: once
    checked (see _raise_if_farkas) it is raised as InfeasibleError, else
    RuntimeError, as after 4 * (rows + dim) steps, should rounding cycle.

    warm, optional, is a guessed active set (row indices into [A; -I]), such
    as the ``active`` of a projection of a nearby point onto the same
    polyhedron.  The method starts from it once dual feasible, dropping one
    row per polish: rows of A the polish leaves slack, then the most
    negative multiplier.  Without warm it starts from the empty set at z_raw.
    """
    z_raw = np.asarray(z_raw, dtype=float)
    excess = A @ z_raw - b
    thresh = FEASIBILITY_TOL * max(1.0, np.abs(b).max())
    if excess.max() <= thresh and z_raw.min() >= -thresh:
        # already feasible: returned unchanged
        return ProjectionResult(z=z_raw.copy(), active=[])
    scale = max(1.0, np.abs(excess).max(), np.abs(z_raw).max())
    bound = 1e-9 * scale
    n_a, dim = A.shape

    rows = sorted(set(map(int, warm or [])))
    while True:
        z, mult, resid, on_a = _polish(z_raw, A, b, rows)
        if not rows:
            break
        unfit = mult.copy()
        unfit[:on_a.size][np.abs(resid[on_a]) > bound] = -np.inf
        if unfit.min() >= 0:
            break
        del rows[int(unfit.argmin())]

    steps, limit = 0, 4 * (n_a + dim)
    while True:
        # rows of S are tight up to rounding, which must not add them again
        resid[on_a] = 0.0
        worst_a, worst_z = resid.argmax(), z.argmin()
        if max(resid[worst_a], -z[worst_z]) <= thresh:
            return ProjectionResult(z=z, active=rows)
        p = int(worst_a if resid[worst_a] >= -z[worst_z] else n_a + worst_z)
        mult_p = 0.0
        while True:
            steps += 1
            if steps > limit:
                raise RuntimeError(f"projection failed to converge in "
                                   f"{limit} steps of the dual method")
            cols = sorted(rows + [p])
            at = cols.index(p)
            z_new, mult_new, resid_new, on_a = _polish(z_raw, A, b, cols)
            primal = (np.abs(resid_new[on_a]) <= bound).all()
            if not primal or mult_new.min() < 0:
                start = np.concatenate((mult[:at], [mult_p], mult[at:]))
                if primal:
                    # toward the polish on cols, reached at the step's end
                    slope, reach = mult_new - start, 1.0
                else:
                    # p in the span of rows: a dual step, z fixed, the
                    # multipliers along p's coefficients on rows
                    g = A[p] if p < n_a else -np.eye(dim)[p - n_a]
                    r = _span(A, rows, g)
                    slope = -np.concatenate((r[:at], [-1.0], r[at:]))
                    reach = np.inf
                falls = np.flatnonzero(slope < 0)
                falls = falls[falls != at]
                ratio = np.maximum(start[falls], 0.0) / -slope[falls]
                if ratio.size and ratio.min() < reach:
                    # the multiplier of row cols[j] reaches zero first
                    j = falls[ratio.argmin()]
                    mult = start + ratio.min() * slope
                    mult_p = mult[at]
                    keep = [i for i in range(len(cols)) if i not in (j, at)]
                    rows, mult = [cols[i] for i in keep], mult[keep]
                    continue
                if not primal:
                    _raise_if_farkas(A, b, cols, slope, thresh)
                    raise RuntimeError(f"projection failed to converge: row "
                                       f"{p} cannot be added to {rows}")
            rows, z, mult, resid = cols, z_new, mult_new, resid_new
            break


# ---------------------------------------------------------------------------
# baselines


def baseline_uniform(problem: IntervalProblem) -> np.ndarray:
    """Even, measurement-count-weighted split of every budget (the
    preconditioner's shares; nothing for a radar without measurements), its
    radar block scaled by the largest rho <= 1 that the throughput rows of A
    allow.  Those rows are linear in rho: rho * load <= room."""
    layout, counts = problem.layout, problem.counts
    z = problem.precond.copy()
    for i in layout.mmr + layout.par:
        if not counts[i].any():
            z[layout.var[i]] = 0.0
    n_r, links = layout.n_radar_vars, slice(layout.n_links)
    load = problem.A[links, :n_r] @ z[:n_r]
    room = problem.b[links] - problem.A[links, n_r:] @ z[n_r:]
    if np.any(room < 0):
        raise InfeasibleError(
            "uniform allocation infeasible even with zero radar resources: "
            "throughput floor unreachable at even comm split")
    over = load > room
    if over.any():
        z[:n_r] *= np.min(room[over] / load[over])
    return z


def baseline_random(problem: IntervalProblem,
                    rng: "np.random.Generator") -> np.ndarray:
    """Random direction per resource block, scaled so each budget binds,
    then projected onto the constraint polyhedron."""
    layout = problem.layout
    z = np.zeros(layout.dim)
    for i in layout.mmr + layout.par:
        u = rng.uniform(0.0, 1.0, layout.n_targets)
        denom = float(problem.counts[i] @ u)
        if denom > 0:
            u *= layout.budget[i] / denom
        z[layout.var[i]] = u
    u = rng.uniform(0.0, 1.0, layout.n_links)
    # the last row of A is bs_power_budget
    z[layout.n_radar_vars:] = u * problem.b[-1] / u.sum()
    return project(z, problem.A, problem.b).z


# ---------------------------------------------------------------------------
# alternating descent-ascent solver


# largest first probe, relative to the per-coordinate budget scale, and the
# first probe of a solve's first step
STEP_SIZE = 204.8
# smallest first probe of a Barzilai-Borwein step
STEP_FLOOR = 1e-8
# stop once a step changes g by at most this, relative, in either direction
OBJ_TOL = 1e-6
MAX_OUTER = 500
# per step: halvings of the step length while g falls
MAX_HALVINGS = 32


def start_point(problem: IntervalProblem,
                z0: Optional[np.ndarray]) -> np.ndarray:
    """adam_solve's start point u in budget-normalized coordinates
    u = z / problem.precond: the projection there of z0, or, for z0 None,
    of the preconditioner's even split problem.precond (u = 1), which
    exists whenever the polyhedron is not empty."""
    precond = problem.precond
    u0 = (np.ones(len(precond)) if z0 is None
          else np.asarray(z0, dtype=float) / precond)
    return project(u0, problem.A * precond[None, :], problem.b).z


def adam_solve(problem: IntervalProblem, z0: Optional[np.ndarray] = None
               ) -> tuple[np.ndarray, list[dict]]:
    """Alternating descent-ascent on one interval's problem, from
    start_point(problem, z0).

    Alternates the closed-form slack update with a projected, preconditioned
    gradient-ascent step on the fractional rewrite.  The slack update pins
    the rewrite f to g at z, and f bounds g from above elsewhere, so by the
    envelope theorem grad_f at z is grad g: the ascent direction is the
    gradient of g.  Each probe builds B(z) once and inverts it once; its
    inverse gives g there and, once the probe is accepted, the next step's
    slack matrices.  A step's first probe is
    the Barzilai-Borwein length s's / s'y of the last accepted step s and the
    gradient's fall y over it (Barzilai and Borwein, IMA J. Numer. Anal.
    8(1), 1988; as in the spectral projected gradient of Birgin, Martinez and
    Raydan, SIAM J. Optim. 10(4), 2000), scaled to the max-normalized
    direction and clipped to [STEP_FLOOR, STEP_SIZE]; it is STEP_SIZE on the
    first step and where s'y <= 0.  The probe is halved while the CRB metric
    g falls by more than OBJ_TOL relative, and the step is accepted only if
    g did not fall, so g rises monotonically; the solver stops once a step
    changes g by at most OBJ_TOL relative, when no step raises it, or after
    MAX_OUTER steps.
    Returns the last accepted iterate and one trace record per accepted
    step, with the projections the step took in "probes".
    """
    A, b, precond = problem.A, problem.b, problem.precond
    lam = lambda_diag(problem.t0)

    # all iterates live in budget-normalized coordinates u = z / scale, so the
    # projection geometry and the step size are unitless across watts/seconds
    A_u = A * precond[None, :]
    u = start_point(problem, z0)
    z = precond * u
    g_cur = objective_g(z, problem)
    # B^{-1} at the start point; every later step's is its accepted probe's
    inv, crb, _ = _weighted_crb(bayesian_B(z, problem), lam)
    trace: list[dict] = []
    # the first probe's guess: the rows of [A_u; -I] tight at u
    tight = np.abs(A_u @ u - b) <= 1e-9 * np.maximum(1.0, np.abs(b))
    last = [*np.flatnonzero(tight).tolist(),
            *(len(b) + np.flatnonzero(u == 0)).tolist()]

    def probe(eta: float):
        # line-search probes share A_u and b, so each starts from the active
        # set of the one before, the first from the rows tight at u; the
        # module-level names keep project and bayesian_B patchable.  Returns
        # the projection and _weighted_crb's (B^{-1}, c, g) there
        nonlocal last
        res = project(u + eta * direction, A_u, b, warm=last)
        last = res.active
        return res, _weighted_crb(bayesian_B(precond * res.z, problem), lam)

    u_prev = grad_prev = None
    for it in range(MAX_OUTER):
        fp = assemble_fractional(_slack(inv, crb, lam), problem)
        if not np.isfinite(f_value(fp, z)):
            raise RuntimeError(f"non-finite objective at iteration {it}")

        grad_u = precond * grad_f(fp, z)
        peak = np.max(np.abs(grad_u))
        direction = grad_u / peak if peak > 0 else np.zeros_like(u)

        # Barzilai-Borwein length s's / s'y of the last accepted step s and
        # the gradient's fall y over it, in units of the normalized direction
        eta = STEP_SIZE
        if u_prev is not None:
            s = u - u_prev
            sy = s @ (grad_prev - grad_u)
            if sy > 0:
                eta = min(max(s @ s / sy * peak, STEP_FLOOR), STEP_SIZE)

        # f, pinned to g at z by the slack update, bounds g from above
        # elsewhere, so a step up the fractional rewrite can still lower g:
        # from the first probe, halve while g falls by more than OBJ_TOL,
        # and stay put unless g did not fall
        proj, (inv_new, crb_new, g_new) = probe(eta)
        probes, tol = 1, OBJ_TOL * g_cur
        for _ in range(MAX_HALVINGS):
            if g_new >= g_cur - tol:
                break
            eta *= 0.5
            proj, (inv_new, crb_new, g_new) = probe(eta)
            probes += 1
        if g_new < g_cur:
            break

        step_norm = float(np.linalg.norm(proj.z - u))
        u_prev, grad_prev, u = u, grad_u, proj.z
        z = precond * u
        inv, crb = inv_new, crb_new
        trace.append({"iteration": it, "f": f_value(fp, z), "g": g_new,
                      "step_norm": step_norm, "probes": probes,
                      "active": [problem.labels[a] for a in proj.active
                                 if a < len(b)]})
        gain, g_cur = g_new - g_cur, g_new
        if gain <= tol:
            break

    # polish in original coordinates: the normalized-space projection can
    # leave O(1e-7) constraint residuals on badly scaled rows
    z = project(z, A, b).z
    np.clip(z, 0.0, None, out=z)
    return z, trace
