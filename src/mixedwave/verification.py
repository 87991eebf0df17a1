"""Manufactured solutions, true-error norms, studies and dense oracles.

Problems are registered as closed-form sympy expressions; the stress
sigma = -A grad u and the forcing f = u_tt + div sigma are derived
symbolically, so the strong equation holds by construction and is
re-checked numerically at registration.  The derived f and div sigma
are lambdified as differentiated, without expansion or simplification.
Every closed form is evaluated as a separated sum sum_i g_i(x, y) h_i(t)
of its terms (assembly._closed_form): a call with many times, such as
a step's five Gauss times, computes the spatial factors once, and only
the products g_i h_i take the full broadcast shape.  True errors fix the
cell quadrature once per closed form and call (closed_form.at): the g_i
are evaluated there once, and each block of nodes, sized so that every
temporary stays under 1 MiB, takes its values as one product of them
with the h_i at its times (an expression with a term that does not
split makes the full call per block).  Convergence studies couple the
step size to the mesh (spatial) or fix the mesh and halve the step
against a fine reference (temporal).
"""

from dataclasses import dataclass, field

import numpy as np
import sympy as sym

from . import estimators as est
from . import reconstruction as rec
from . import solver
from .assembly import _T, _X, _Y, Coefficient, _closed_form, assemble_system
from .mesh import unit_square_mesh
from .spaces import MixedSpace


class VerificationError(Exception):
    pass


class SelfCheckError(VerificationError):
    """Manufactured closed forms do not satisfy the strong equation."""


@dataclass
class ManufacturedProblem:
    """Closed-form exact solution of u_tt - div(A grad u) = f.

    All callables take (x, y, t) arrays that broadcast against each other
    (the solver passes a step's five Gauss times as t of shape (5, 1, 1));
    sigma returns the broadcast shape + (2,) and A is a Coefficient.  Each
    callable evaluates its expression as a separated sum
    sum_i g_i(x, y) h_i(t), the spatial factors once per call whatever the
    number of times, and u, u_t and sigma are also read point major
    through closed_form.at, which true_error and initial_errors call once
    per closed form, with the spatial factors evaluated once per run.  f
    and div_sigma evaluate the unsimplified derived expressions.  f is
    None when the derived sum u_tt + div sigma cancels term by term (no
    simplification is tried).
    """

    name: str
    A: Coefficient
    u: object
    u_t: object
    u_tt: object
    sigma: object
    div_sigma: object
    f: object
    final_time: float = 0.5

    def u0(self, x, y):
        return self.u(x, y, 0.0)

    def u1(self, x, y):
        return self.u_t(x, y, 0.0)

    def self_check(self):
        """Largest residual of the strong equation at 100 random points.

        Raises SelfCheckError above 1e-10.
        """
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0.0, 1.0, (2, 100))
        t = rng.uniform(0.0, self.final_time, 100)
        resid = self.u_tt(x, y, t) + self.div_sigma(x, y, t)
        if self.f is not None:
            resid = resid - self.f(x, y, t)
        worst = float(np.abs(resid).max())
        if worst > 1e-10:
            raise SelfCheckError("strong-equation residual {} exceeds 1e-10".format(worst))
        return worst


def manufactured(name, u_expr, A_entries=None, final_time=0.5):
    """Register a problem from sympy expressions in (x, y, t).

    A_entries is a 2x2 nested list of sympy expressions in x and y
    (identity when None).  Its Matrix is both the Coefficient and the A
    of sigma = -A grad u; sigma and f are derived symbolically,
    lambdified unsimplified and unexpanded as separated space-time sums
    (assembly._closed_form), and the result is self-checked at 100
    random samples.
    """
    A_mat = sym.eye(2) if A_entries is None else sym.Matrix(A_entries)
    grad_u = sym.Matrix([sym.diff(u_expr, _X), sym.diff(u_expr, _Y)])
    sigma_vec = -A_mat * grad_u
    div_sigma = sym.diff(sigma_vec[0], _X) + sym.diff(sigma_vec[1], _Y)
    u_t = sym.diff(u_expr, _T)
    u_tt = sym.diff(u_t, _T)
    f_expr = u_tt + div_sigma

    prob = ManufacturedProblem(
        name=name,
        A=Coefficient(A_mat),
        u=_closed_form(u_expr),
        u_t=_closed_form(u_t),
        u_tt=_closed_form(u_tt),
        sigma=_closed_form(sigma_vec),
        div_sigma=_closed_form(div_sigma),
        f=None if f_expr == 0 else _closed_form(f_expr),
        final_time=final_time,
    )
    prob.self_check()
    return prob


_MODE = sym.sin(sym.pi * _X) * sym.sin(sym.pi * _Y)


def standing_wave():
    """Exact eigenmode of the unit square: A = I and f = 0."""
    return manufactured(
        "standing-wave", _MODE * sym.cos(sym.sqrt(2) * sym.pi * _T)
    )


def variable_coefficient():
    """Same displacement with A = diag(1 + x/2, 1 + y/2); f derived."""
    A = [[1 + _X / 2, 0], [0, 1 + _Y / 2]]
    return manufactured(
        "variable-coefficient", _MODE * sym.cos(sym.sqrt(2) * sym.pi * _T), A
    )


def forced_oscillation():
    """Rapidly forced problem: u = sin(pi x) sin(pi y) cos(20 t), A = I."""
    return manufactured("forced-cos20", _MODE * sym.cos(20 * _T))


PROBLEMS = {
    "standing-wave": standing_wave,
    "variable-coefficient": variable_coefficient,
    "forced-cos20": forced_oscillation,
}


# ----------------------------------------------------------------------
# true errors
# ----------------------------------------------------------------------

# Nodes per true-error block come from this budget of quadrature points:
# the (T nq 2, nodes) stress differences of a block, the largest
# temporary, stay at 512 KiB or less, under 1 MiB, so the allocator
# reuses freed heap blocks instead of mapping zeroed pages.
_BLOCK_POINTS = 1 << 15


def _errors(space, rows, exact, times, alpha=None):
    """Quadrature norms ||R^n - exact(t_n)|| of rows R (m, n) at times (m,).

    Displacement rows when alpha is None, else stress rows in the alpha
    norm.  The spatial factors of exact are evaluated once (exact.at);
    each block of nodes takes the values map @ rows.T point major, shaped
    (points, nodes), subtracts exact in place and sums the squares as
    weighted matrix-vector products, with alpha's three distinct entries
    for the stress.
    """
    pts = space.quad_points
    w = space.quad_weights.ravel()
    if alpha is None:
        quad_map, forms = space.disp_quad_map, [(w, 0, 0)]
    else:
        a = alpha.reshape(-1, 2, 2)
        quad_map = space.stress_quad_map
        forms = [(w * a[:, 0, 0], 0, 0), (2.0 * w * a[:, 0, 1], 0, 1), (w * a[:, 1, 1], 1, 1)]
    values = exact.at(pts[..., 0], pts[..., 1])
    block = max(1, _BLOCK_POINTS // w.size)
    sq = np.zeros(len(times))
    for start in range(0, len(times), block):
        b = slice(start, start + block)
        d = quad_map @ rows[b].T
        d -= values(times[b]).reshape(d.shape)
        d = d.reshape(w.size, -1, d.shape[-1])
        for wk, i, j in forms:
            sq[b] += wk @ (d[:, i] * d[:, j])
    return np.sqrt(sq)


def true_error(traj, problem):
    """Per-node errors ||U^n - u(t_n)|| and ||Sigma^n - sigma(t_n)||_{A^-1}.

    The stress norm is weighted by the run's own alpha (traj.system.alpha);
    u and sigma are evaluated as in _errors, their spatial factors once
    per call, in blocks of as many nodes as _BLOCK_POINTS allows.
    """
    nodes = traj.grid.nodes
    return (
        _errors(traj.space, traj.U, problem.u, nodes),
        _errors(traj.space, traj.Sigma, problem.sigma, nodes, traj.system.alpha),
    )


def initial_errors(traj, problem):
    """(||e_u(0)||, ||e_{u,t}(0)||, ||e_sigma(0)||_{A^-1}), as in true_error."""
    space, t0 = traj.space, traj.grid.nodes[:1]
    return (
        float(_errors(space, traj.U[:1], problem.u, t0)[0]),
        float(_errors(space, traj.dtU[:1], problem.u_t, t0)[0]),
        float(_errors(space, traj.Sigma[:1], problem.sigma, t0, traj.system.alpha)[0]),
    )


def solve_problem(problem, n, N, T=None, rt_index=0, forcing_mode="pointwise"):
    """Convenience wrapper: mesh, space, system, run."""
    T = problem.final_time if T is None else T
    space = MixedSpace(unit_square_mesh(n), rt_index)
    system = assemble_system(space, problem.A)
    return solver.run(
        system, problem.f, problem.u0, problem.u1, solver.uniform_grid(T, N),
        forcing_mode=forcing_mode,
    )


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

@dataclass
class StudyResult:
    """Per-level errors, bounds, effectivity and observed rates."""

    kind: str
    h: np.ndarray
    k: np.ndarray
    err_u: np.ndarray
    err_sigma: np.ndarray
    bound_u: np.ndarray
    bound_sigma: np.ndarray
    eff_u: np.ndarray
    eff_sigma: np.ndarray
    rate_u: np.ndarray
    rate_sigma: np.ndarray
    extras: dict = field(default_factory=dict)

    def write_csv(self, path):
        names = [
            "h", "k", "err_u", "err_sigma", "bound_u", "bound_sigma",
            "eff_u", "eff_sigma", "rate_u", "rate_sigma",
        ]
        est.write_columns(
            path,
            ["level"] + names,
            [np.arange(len(self.h))] + [getattr(self, name) for name in names],
        )


def _rates(h, e):
    r = np.zeros(len(e))
    for i in range(1, len(e)):
        r[i] = np.log(e[i - 1] / e[i]) / np.log(h[i - 1] / h[i])
    return r


def run_spatial_study(
    problem,
    mesh_levels=(8, 16, 32),
    rt_index=0,
    coupling=0.25,
    T=None,
    forcing_mode="pointwise",
    constants="unit",
):
    """Refine the mesh with k ~ coupling * h^2 so time error is subdominant.

    Returns a StudyResult with L-infinity-in-time node errors, composite
    bounds, effectivity and observed rates per level.  Under the
    calibrated constants policy the scales are fit on the coarsest level
    (effectivity 2) and frozen.
    """
    if len(mesh_levels) < 3:
        raise VerificationError("a study needs at least 3 levels")
    if constants not in ("unit", "calibrated"):
        raise VerificationError("constants policy must be 'unit' or 'calibrated'")
    T = problem.final_time if T is None else T
    hs, ks = [], []
    eu, es = [], []
    bu_unit, bs_unit, bu_cal, bs_cal = [], [], [], []
    calibration = None
    for n in mesh_levels:
        h = np.sqrt(2.0) / n
        N = max(2, int(round(T / (coupling * h ** 2))))
        traj = solve_problem(problem, n, N, T, rt_index, forcing_mode)
        err_u, err_s = true_error(traj, problem)
        e0 = initial_errors(traj, problem)
        rep = est.compose_report(traj, err_u=err_u, err_sigma=err_s, initial_errors=e0)
        if calibration is None:
            calibration = est.calibrate_scales(rep)
        cal = est.calibrated(rep, calibration)
        hs.append(h)
        ks.append(T / N)
        mu, ms = int(np.argmax(err_u)), int(np.argmax(err_s))
        eu.append(err_u[mu])
        es.append(err_s[ms])
        bu_unit.append(rep.bound_u[mu])
        bs_unit.append(rep.bound_sigma[ms])
        bu_cal.append(cal.bound_u[mu])
        bs_cal.append(cal.bound_sigma[ms])
    hs, eu, es = np.array(hs), np.array(eu), np.array(es)
    bu_unit, bs_unit = np.array(bu_unit), np.array(bs_unit)
    bu_cal, bs_cal = np.array(bu_cal), np.array(bs_cal)
    bu, bs = (bu_cal, bs_cal) if constants == "calibrated" else (bu_unit, bs_unit)
    return StudyResult(
        kind="spatial",
        h=hs,
        k=np.array(ks),
        err_u=eu,
        err_sigma=es,
        bound_u=bu,
        bound_sigma=bs,
        eff_u=bu / eu,
        eff_sigma=bs / es,
        rate_u=_rates(hs, eu),
        rate_sigma=_rates(hs, es),
        extras={
            "constants": constants,
            "calibration": calibration,
            "eff_u_unit": bu_unit / eu,
            "eff_sigma_unit": bs_unit / es,
            "eff_u_calibrated": bu_cal / eu,
            "eff_sigma_calibrated": bs_cal / es,
        },
    )


def run_temporal_study(
    problem,
    mesh_n=32,
    steps=(20, 40, 80),
    ref_steps=640,
    rt_index=0,
    T=None,
    forcing_mode="pointwise",
):
    """Fixed mesh, halved steps, errors against a fine-step reference.

    The reference shares the mesh, so the measured error is purely
    temporal (self-convergence); every coarse node must be a reference
    node.  Also records the first-family k-weighted term (the k^2/2 and
    k^3/12 sums) per level for its k-exponent.
    """
    T = problem.final_time if T is None else T
    space = MixedSpace(unit_square_mesh(mesh_n), rt_index)
    system = assemble_system(space, problem.A)
    ref = solver.run(
        system, problem.f, problem.u0, problem.u1, solver.uniform_grid(T, ref_steps),
        forcing_mode=forcing_mode,
    )
    hs, ks, eu, es, e13s = [], [], [], [], []
    alpha_norm = lambda v: float(np.sqrt(v @ (system.M_sigma @ v)))
    for N in steps:
        if ref_steps % N != 0:
            raise VerificationError("reference steps must be a multiple of each N")
        stride = ref_steps // N
        traj = solver.run(
            system, problem.f, problem.u0, problem.u1, solver.uniform_grid(T, N),
            forcing_mode=forcing_mode,
        )
        du = traj.U - ref.U[::stride]
        ds = traj.Sigma - ref.Sigma[::stride]
        eu.append(max(float(np.sqrt(d @ (system.M_u @ d))) for d in du))
        es.append(max(alpha_norm(d) for d in ds))
        te = est.temporal_estimate(traj)
        e13s.append(float(te.e13[-1]))
        hs.append(space.mesh.h_max)
        ks.append(T / N)
    ks, eu, es = np.array(ks), np.array(eu), np.array(es)
    zeros = np.zeros(len(ks))
    return StudyResult(
        kind="temporal",
        h=np.array(hs),
        k=ks,
        err_u=eu,
        err_sigma=es,
        bound_u=zeros.copy(),
        bound_sigma=zeros.copy(),
        eff_u=zeros.copy(),
        eff_sigma=zeros.copy(),
        rate_u=_rates(ks, eu),
        rate_sigma=_rates(ks, es),
        extras={"e13": np.array(e13s), "e13_rate": _rates(ks, np.array(e13s))},
    )


# ----------------------------------------------------------------------
# dense oracles and energy checks
# ----------------------------------------------------------------------

def oracle_small_instance(problem=None, steps=3, rt_index=0, k=0.1):
    """Dense re-solve of a tiny instance; returns worst relative gaps.

    Assembles the same saddle systems densely and solves with numpy; the
    sparse path must agree to 1e-11 relative in every degree of freedom,
    for both the time steps and the elliptic reconstruction.
    """
    from .mesh import two_triangle_square

    if problem is None:
        problem = standing_wave()
    space = MixedSpace(two_triangle_square(), rt_index)
    system = assemble_system(space, problem.A)
    grid = solver.uniform_grid(k * steps, steps)
    traj = solver.run(system, problem.f, problem.u0, problem.u1, grid)

    Ms = system.M_sigma.toarray()
    B = system.B.toarray()
    Mu = system.M_u.toarray()
    ns = space.n_stress
    worst = 0.0
    scale = max(np.abs(traj.U).max(), np.abs(traj.Sigma).max(), 1.0)

    Sigma0 = np.linalg.solve(Ms, B.T @ traj.U[0])
    worst = max(worst, np.abs(Sigma0 - traj.Sigma[0]).max() / scale)
    for n in range(1, steps + 1):
        kn = grid.steps[n - 1]
        K = np.block([[Ms, -B.T], [B, Mu / kn ** 2]])
        g = traj.f_bar[n] + Mu @ (traj.U[n - 1] + kn * traj.dtU[n - 1]) / kn ** 2
        sol = np.linalg.solve(K, np.concatenate([np.zeros(ns), g]))
        worst = max(worst, np.abs(sol[:ns] - traj.Sigma[n]).max() / scale,
                    np.abs(sol[ns:] - traj.U[n]).max() / scale)

    # reconstruction: dense solve of the enriched mixed Poisson problem
    recon = rec.reconstruct_trajectory(traj)
    fs = recon.fine_system
    Bf, Muf = fs.B.toarray(), fs.M_u.toarray()
    nsf = recon.enriched.fine.n_stress
    K = np.block([[fs.M_sigma.toarray(), -Bf.T], [Bf, np.zeros((Bf.shape[0], Bf.shape[0]))]])
    for n in range(steps + 1):
        dt2 = recon.enriched.P_disp @ traj.d2U[n]
        load = solver.load_vector(fs, traj.f, *grid.interval(n), traj.forcing_mode)
        sol = np.linalg.solve(K, np.concatenate([np.zeros(nsf), load - Muf @ dt2]))
        rscale = max(scale, np.abs(recon.sigma_tilde[n]).max())
        worst = max(worst, np.abs(sol[:nsf] - recon.sigma_tilde[n]).max() / rscale,
                    np.abs(sol[nsf:] - recon.u_tilde[n]).max() / rscale)
    return worst


def energy_drift(traj):
    """Largest per-step energy increase (0 for a monotone trajectory)."""
    E = np.array([traj.energy(n) for n in range(traj.grid.num_steps + 1)])
    return float(np.maximum(np.diff(E), 0.0).max(initial=0.0))
