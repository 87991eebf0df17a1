"""Time and space reconstructions of the discrete solution.

Two devices live here.  The C1 time interpolant turns node values and
backward-difference rates into a piecewise-cubic function of t whose
second derivative on each interval is (1 + mu^n(t)) d2V^n with the
mean-zero linear weight mu^n.  The elliptic reconstruction solves, on an
enriched space (a uniformly refined mesh with the same RT index), the
stationary mixed problem whose mixed projection onto the run space is
the computed pair (U^n, Sigma^n).  That problem is the mixed system of
a time step with no displacement mass, and it is solved the same way
(solver.solve_mixed), with one factor for all nodes that is released
once they are solved.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_system, load_of_values
from .mesh import refine_uniform
from .solver import TimeGrid, _node_blocks, forcing_blocks, solve_mixed
from .spaces import MixedSpace, _cell_rows, l2_project_local, rt_interpolate


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
    R[1:] = grid.backward_difference(V)
    S = np.zeros_like(V)
    S[1:] = grid.backward_difference(R)
    return C1Interpolant(grid=grid, values=V, rates=R, seconds=S)


def c1_eval(interp, t):
    """Evaluate (V, V_t, V_tt) at time t in [0, T]."""
    grid = interp.grid
    if t < 0.0 or t > grid.final_time + 1e-14:
        raise OutOfDomainError("time {} outside [0, T]".format(t))
    n = grid.interval_index(t)
    t0, t1 = grid.interval(n)
    k = grid.steps[n - 1]
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
    parent_of_cell: np.ndarray = field(repr=False)
    P_stress: sp.csr_matrix = field(repr=False)
    P_disp: sp.csr_matrix = field(repr=False)


def _disp_prolongation(coarse, fine, parent):
    """Fine-space L2 projections of the coarse displacement basis, cell by cell."""
    local = l2_project_local(fine, coarse.eval_disp_basis(parent, fine.quad_points))
    return _cell_rows(local, coarse.cell_disp_dofs[parent], coarse.n_disp)


def _stress_prolongation(coarse, fine, parent):
    """Enriched-space degrees of freedom of every coarse stress basis function.

    Each fine dof is interpolated from the local basis of one coarse
    cell: the parent of its fine cell, or for an edge dof the parent of
    fine.edge_cells[:, 0]; coarse RT normal traces are single-valued
    across edges, so the side is immaterial.
    """
    def basis(cells, pts):  # the coarse local basis as a trailing batch axis
        return np.swapaxes(coarse.eval_stress_basis(parent[cells], pts), -1, -2)

    local = rt_interpolate(fine, basis)
    edge_parent = parent[fine.mesh.edge_cells[:, 0]]
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
        parent_of_cell=parent,
        P_stress=_stress_prolongation(space, fine, parent),
        P_disp=_disp_prolongation(space, fine, parent),
    )


# ----------------------------------------------------------------------
# elliptic reconstruction
# ----------------------------------------------------------------------

@dataclass
class EllipticReconstruction:
    """Elliptic reconstructions of every node of a trajectory.

    All coefficient arrays live on the enriched space, one C-contiguous
    row per node.  u_tilde and sigma_tilde are the reconstructions;
    U_fine and Sigma_fine are the exact transfers of the discrete states.
    fine_system is the enriched system, without the factor it was
    solved with.
    """

    enriched: EnrichedSpace
    fine_system: object
    grid: TimeGrid
    u_tilde: np.ndarray
    sigma_tilde: np.ndarray
    U_fine: np.ndarray
    Sigma_fine: np.ndarray


def _transfer(P, rows):
    """Rows of P @ row for each row of `rows`, built in node blocks."""
    out = np.empty((len(rows), P.shape[0]))
    for k in _node_blocks(len(rows), P.shape[0]):
        out[k] = (P @ rows[k].T).T
    return out


def reconstruct_trajectory(traj, enriched=None):
    """Reconstruct (u_t^n, sigma_t^n) at every node of `traj`.

    The right-hand side at node n is f_bar^n - d2U^n, with d2U^n
    transferred to the enriched space and f_bar^n sampled as the run
    sampled it, at the enriched quadrature (solver.forcing_blocks, one f
    call per node block); node 0 takes the discrete initial acceleration
    (Trajectory.d2U) and f at t = 0.  The N+1 right-hand sides share one
    factorization of the enriched system (solver.solve_mixed, weight 0).
    The loads are written into one preallocated array, and every
    sampling and product over all nodes runs in node blocks of at most
    solver._BLOCK_ENTRIES (1 MiB) per temporary, so the reconstruction
    holds little beyond its four outputs.  The enriched factor is used
    once: it is dropped from fine_system's factor cache before the
    return.  `enriched` defaults to enrich_space(traj.space).
    """
    space = traj.space
    if enriched is None:
        enriched = enrich_space(space)
    fine_system = assemble_system(enriched.fine, traj.system.coefficient)
    nodes = traj.grid.num_steps + 1
    P, M = enriched.P_disp, fine_system.M_u

    rhs = np.zeros((nodes, enriched.fine.n_disp))
    for b, fbar, _ in forcing_blocks(enriched.fine, traj.f, traj.grid, traj.forcing_mode):
        rhs[b] = load_of_values(enriched.fine, fbar)
    for k in _node_blocks(nodes, rhs.shape[1]):
        rhs[k] -= (M @ (P @ traj.d2U[k].T)).T
    u_t, s_t = solve_mixed(fine_system, 0.0, rhs)
    del rhs  # before the transfers, which are as large
    fine_system._factor_cache.pop(0.0)
    return EllipticReconstruction(
        enriched=enriched,
        fine_system=fine_system,
        grid=traj.grid,
        u_tilde=u_t,
        sigma_tilde=s_t,
        U_fine=_transfer(P, traj.U),
        Sigma_fine=_transfer(enriched.P_stress, traj.Sigma),
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

