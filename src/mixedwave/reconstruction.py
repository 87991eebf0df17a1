"""Time and space reconstructions of the discrete solution.

Two devices live here.  The C1 time interpolant turns node values and
backward-difference rates into a piecewise-cubic function of t whose
second derivative on each interval is (1 + mu^n(t)) d2V^n with the
mean-zero linear weight mu^n.  The elliptic reconstruction solves, on an
enriched space (a uniformly refined mesh with the same RT index), the
stationary mixed problem whose mixed projection onto the run space is
the computed pair (U^n, Sigma^n).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_system
from .mesh import refine_uniform
from .solver import SingularSystemError, TimeGrid, load_vector
from .spaces import MixedSpace, _cell_rows, rt_interpolate


class ReconstructionError(Exception):
    pass


class GridMismatchError(ReconstructionError):
    pass


class OutOfDomainError(ReconstructionError):
    pass


def mu(grid: TimeGrid, n, t):
    """The interval weight mu^n(t) = -6 k_n^-1 (t - t_{n-1/2})."""
    if not 1 <= n <= grid.num_steps:
        raise OutOfDomainError("interval index {} out of range".format(n))
    k = grid.steps[n - 1]
    t_mid = 0.5 * (grid.nodes[n - 1] + grid.nodes[n])
    return -6.0 / k * (np.asarray(t) - t_mid)


@dataclass(frozen=True)
class C1Interpolant:
    """Piecewise cubic V(t) with V(t_n) = V^n and V_t(t_n) = dV^n.

    values, rates and seconds are (N+1, m) arrays of coefficient vectors;
    seconds[n] = (rates[n] - rates[n-1]) / k_n for n >= 1 (row 0 unused).
    """

    grid: TimeGrid
    values: np.ndarray
    rates: np.ndarray
    seconds: np.ndarray


def c1_build(grid, node_values, initial_rate):
    """Build the C1 interpolant from node values and the initial rate.

    Rates at n >= 1 are the backward differences (V^n - V^{n-1}) / k_n.
    """
    V = np.atleast_2d(np.asarray(node_values, dtype=float))
    if len(V) != grid.num_steps + 1:
        raise GridMismatchError(
            "got {} value rows for {} time nodes".format(len(V), grid.num_steps + 1)
        )
    R = np.empty_like(V)
    R[0] = np.asarray(initial_rate, dtype=float)
    k = grid.steps
    R[1:] = np.diff(V, axis=0) / k[:, None]
    S = np.zeros_like(V)
    S[1:] = np.diff(R, axis=0) / k[:, None]
    return C1Interpolant(grid=grid, values=V, rates=R, seconds=S)


def c1_eval(interp, t):
    """Evaluate (V, V_t, V_tt) at time t in [0, T]."""
    grid = interp.grid
    if t < 0.0 or t > grid.final_time + 1e-14:
        raise OutOfDomainError("time {} outside [0, T]".format(t))
    n = grid.interval_index(t)
    t0, t1 = grid.nodes[n - 1], grid.nodes[n]
    k = t1 - t0
    V, R, S = interp.values[n], interp.rates[n], interp.seconds[n]
    back, fwd = t - t0, t1 - t
    value = V + (t - t1) * R - (back * fwd ** 2 / k) * S
    rate = R - ((fwd ** 2 - 2.0 * back * fwd) / k) * S
    second = (1.0 + mu(grid, n, t)) * S
    return value, rate, second


# ----------------------------------------------------------------------
# enriched spaces and prolongation
# ----------------------------------------------------------------------

@dataclass
class EnrichedSpace:
    """A refined companion space with transfer operators from the run space.

    P_stress and P_disp carry coarse coefficient vectors to the enriched
    space exactly (the coarse spaces are subspaces of the enriched ones).
    """

    coarse: MixedSpace
    fine: MixedSpace
    levels: int
    parent_of_cell: np.ndarray = field(repr=False)
    P_stress: sp.csr_matrix = field(repr=False)
    P_disp: sp.csr_matrix = field(repr=False)


def _disp_prolongation(coarse, fine, parent):
    w = fine.quad_weights
    fb = fine.disp_at_quad  # (Tf, nq, nd)
    cb = coarse.eval_disp_basis(parent, fine.quad_points)
    M = np.einsum("tq,tqa,tqb->tab", w, fb, fb)
    R = np.einsum("tq,tqa,tqb->tab", w, fb, cb)
    P_loc = np.linalg.solve(M, R)  # (Tf, nd, nd)
    rows = np.repeat(fine.cell_disp_dofs, coarse.n_loc_disp, axis=1)
    cols = coarse.cell_disp_dofs[parent]
    cols = np.tile(cols, (1, fine.n_loc_disp))
    return sp.coo_matrix(
        (P_loc.ravel(), (rows.ravel(), cols.ravel())),
        shape=(fine.n_disp, coarse.n_disp),
    ).tocsr()


def _stress_prolongation(coarse, fine, parent):
    """Enriched-space degrees of freedom of every coarse stress basis function.

    Each fine dof is interpolated from the local basis of one coarse
    cell: the parent of its fine cell, or for an edge dof the parent of
    fine.edge_cells[:, 0]; coarse RT normal traces are single-valued
    across edges, so the side is immaterial.
    """
    edge_parent = parent[fine.mesh.edge_cells[:, 0]]
    edge_pts, _ = fine.edge_quadrature()

    def basis(cells, pts):  # the coarse local basis as a trailing batch axis
        return np.swapaxes(coarse.eval_stress_basis(cells, pts), -1, -2)

    cell_basis = basis(parent, fine.quad_points) if coarse.rt_index else None
    local = rt_interpolate(fine, basis(edge_parent, edge_pts), cell_basis)
    source = np.concatenate([edge_parent, parent])[fine.stress_dof_entity]
    return _cell_rows(local, coarse.cell_stress_dofs[source], coarse.n_stress)


def enrich_space(space, levels=1):
    """Refine the mesh `levels` times and build the transfer operators."""
    if levels < 0:
        raise ReconstructionError("enrichment level must be >= 0")
    mesh = space.mesh
    parent = np.arange(mesh.num_cells)
    for _ in range(levels):
        res = refine_uniform(mesh)
        mesh = res.child_mesh
        parent = parent[res.parent_of_cell]
    fine = MixedSpace(mesh, space.rt_index)
    return EnrichedSpace(
        coarse=space,
        fine=fine,
        levels=levels,
        parent_of_cell=parent,
        P_stress=_stress_prolongation(space, fine, parent),
        P_disp=_disp_prolongation(space, fine, parent),
    )


# ----------------------------------------------------------------------
# elliptic reconstruction
# ----------------------------------------------------------------------

def _elliptic_factor(fine_system):
    key = "elliptic"
    if key not in fine_system._factor_cache:
        K = sp.bmat(
            [
                [fine_system.M_sigma, -fine_system.B.T],
                [fine_system.B, None],
            ],
            format="csc",
        )
        try:
            fine_system._factor_cache[key] = spla.splu(K)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
    return fine_system._factor_cache[key]


def reconstruct_elliptic(fine_system, rhs_disp):
    """Solve the enriched mixed Poisson problem.

    Finds (sigma_t, u_t) with (alpha sigma_t, v) - (u_t, div v) = 0 and
    (div sigma_t, w) = (rhs_disp, w) for all enriched test functions;
    `rhs_disp` is already a load vector over the enriched displacement
    basis, or an (m, n_disp) stack of them, solved together in one
    multi-right-hand-side solve.  Returns (u_t, sigma_t) coefficient
    vectors, stacked in rows like `rhs_disp`.
    """
    lu = _elliptic_factor(fine_system)
    n_s = fine_system.space.n_stress
    rhs_disp = np.asarray(rhs_disp, dtype=float)
    rhs = np.zeros((n_s + rhs_disp.shape[-1],) + rhs_disp.shape[:-1], order="F")
    rhs[n_s:] = rhs_disp.T
    sol = lu.solve(rhs).T
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("reconstruction solve produced non-finite values")
    return sol[..., n_s:], sol[..., :n_s]


@dataclass
class EllipticReconstruction:
    """Elliptic reconstructions of every node of a trajectory.

    All coefficient arrays live on the enriched space.  u_tilde and
    sigma_tilde are the reconstructions; U_fine and Sigma_fine are the
    exact transfers of the discrete states.
    """

    enriched: EnrichedSpace
    fine_system: object
    grid: TimeGrid
    u_tilde: np.ndarray
    sigma_tilde: np.ndarray
    U_fine: np.ndarray
    Sigma_fine: np.ndarray


def reconstruct_trajectory(traj, enriched=None):
    """Reconstruct (u_t^n, sigma_t^n) at every node of `traj`.

    The right-hand side at node n is f_bar^n - d2U^n, with d2U^n
    transferred to the enriched space and f_bar^n sampled as the run
    sampled it; node 0 takes the discrete initial acceleration
    (Trajectory.d2U) and f at t = 0.  The N+1 right-hand sides are
    solved together in one multi-right-hand-side solve.  `enriched`
    defaults to enrich_space(traj.space).
    """
    space = traj.space
    if enriched is None:
        enriched = enrich_space(space)
    fine_system = assemble_system(enriched.fine, traj.system.coefficient)

    loads = np.stack([
        load_vector(fine_system, traj.f, *traj.grid.interval(n), traj.forcing_mode)
        for n in range(traj.grid.num_steps + 1)
    ])
    d2U_fine = fine_system.M_u @ (enriched.P_disp @ traj.d2U.T)
    u_t, s_t = reconstruct_elliptic(fine_system, loads - d2U_fine.T)
    return EllipticReconstruction(
        enriched=enriched,
        fine_system=fine_system,
        grid=traj.grid,
        u_tilde=u_t,
        sigma_tilde=s_t,
        U_fine=traj.U @ enriched.P_disp.T,
        Sigma_fine=traj.Sigma @ enriched.P_stress.T,
    )


def galerkin_orthogonality(recon, n):
    """Residuals of the projection property against the run-space basis.

    Returns (res1, res2): the maxima over coarse test functions of
    |(alpha(sigma_t - Sigma), v_h) - (u_t - U, div v_h)| and
    |(div(sigma_t - Sigma), w_h)|.  The run spaces are subspaces of the
    enriched ones, so both vanish to solver tolerance when A is constant
    and f is a polynomial the quadrature integrates exactly.  Otherwise
    the enriched system integrates alpha and f with fine-mesh quadrature
    and the residuals are only quadrature-small: about 1e-8 relative on
    an 8 x 8 mesh for a variable coefficient or a non-polynomial
    forcing, falling to about 3e-14 at 32 x 32.
    """
    e = recon.enriched
    fs = recon.fine_system
    ds = recon.sigma_tilde[n] - recon.Sigma_fine[n]
    du = recon.u_tilde[n] - recon.U_fine[n]
    res1 = e.P_stress.T @ (fs.M_sigma @ ds - fs.B.T @ du)
    res2 = e.P_disp.T @ (fs.B @ ds)
    return float(np.abs(res1).max()), float(np.abs(res2).max())


def enriched_mixed_residual(recon, n):
    """Max defect of (alpha sigma_t, v) - (u_t, div v) = 0 on the fine basis.

    This is the discrete shadow of alpha sigma_t = -grad u_t.
    """
    fs = recon.fine_system
    r = fs.M_sigma @ recon.sigma_tilde[n] - fs.B.T @ recon.u_tilde[n]
    return float(np.abs(r).max())
