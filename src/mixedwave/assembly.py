"""Sparse operators and functionals of the discrete mixed problem.

Builds the alpha-weighted stress mass matrix (alpha = A^-1), the
divergence coupling and the displacement mass matrix, plus the load
vectors and the edge/cell quantities consumed by the estimators.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .spaces import MixedSpace, StressField, _cell_rows, _eval_scalar, _scatter


class AssemblyError(Exception):
    pass


class CoefficientNotSPDError(AssemblyError):
    """Coefficient matrix A has a non-positive eigenvalue somewhere."""


class Coefficient:
    """Symmetric uniformly positive definite coefficient A(x).

    `entries` is either None (identity), a constant (2, 2) array, or a
    callable (x, y) -> array of shape x.shape + (2, 2).
    """

    def __init__(self, entries=None):
        if callable(entries):
            self.kind = "callable"
            self.fn = entries
        elif entries is None:
            self.kind = "identity"
        else:
            A = np.asarray(entries, dtype=float)
            if A.shape != (2, 2) or not np.allclose(A, A.T):
                raise AssemblyError("constant coefficient must be symmetric 2x2")
            self.kind = "constant"
            self.A = A

    @property
    def is_constant(self):
        return self.kind in ("identity", "constant")

    def a_at(self, pts):
        """A at points (..., 2) -> (..., 2, 2)."""
        shape = pts.shape[:-1]
        if self.kind == "identity":
            return np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
        if self.kind == "constant":
            return np.broadcast_to(self.A, shape + (2, 2)).copy()
        A = np.asarray(self.fn(pts[..., 0], pts[..., 1]), dtype=float)
        return np.broadcast_to(A, shape + (2, 2)).copy()

    def alpha_at(self, pts):
        """alpha = A^-1 at points, with an SPD check."""
        A = self.a_at(pts)
        tr = A[..., 0, 0] + A[..., 1, 1]
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        disc = np.sqrt(np.maximum((tr / 2) ** 2 - det, 0.0))
        if np.any(tr / 2 - disc <= 0.0):
            raise CoefficientNotSPDError("A has a non-positive eigenvalue")
        return np.linalg.inv(A)


def as_coefficient(A):
    return A if isinstance(A, Coefficient) else Coefficient(A)


@dataclass
class SaddleSystem:
    """Sparse matrices of the discrete mixed forms.

    M_sigma : (alpha Sigma, v), n_stress x n_stress, SPD
    B : (div Sigma, w), n_disp x n_stress
    M_u : (U, w), n_disp x n_disp, cell-block-diagonal SPD
    """

    space: MixedSpace
    coefficient: Coefficient
    M_sigma: sp.csr_matrix
    B: sp.csr_matrix
    M_u: sp.csr_matrix
    _factor_cache: dict = field(default_factory=dict, repr=False)


def assemble_system(space, A=None):
    """Assemble M_sigma, B and M_u for coefficient A (identity default)."""
    coeff = as_coefficient(A)
    w = space.quad_weights  # (T, nq)
    sb = space.stress_at_quad  # (T, nq, nl, 2)
    db = space.div_at_quad  # (T, nq, nl)
    ub = space.disp_at_quad  # (T, nq, nd)
    alpha = coeff.alpha_at(space.quad_points)  # (T, nq, 2, 2)

    asb = np.einsum("tqcd,tqkd->tqkc", alpha, sb)
    Ms_loc = np.einsum("tq,tqic,tqjc->tij", w, asb, sb)
    B_loc = np.einsum("tq,tqa,tqj->taj", w, ub, db)
    Mu_loc = np.einsum("tq,tqa,tqb->tab", w, ub, ub)

    sd = space.cell_stress_dofs
    dd = space.cell_disp_dofs
    n_s, n_d = space.n_stress, space.n_disp
    M_sigma = _scatter(
        np.repeat(sd, sd.shape[1], axis=1),
        np.tile(sd, (1, sd.shape[1])),
        Ms_loc,
        (n_s, n_s),
    )
    B = _scatter(
        np.repeat(dd, sd.shape[1], axis=1),
        np.tile(sd, (1, dd.shape[1])),
        B_loc,
        (n_d, n_s),
    )
    M_u = _scatter(
        np.repeat(dd, dd.shape[1], axis=1),
        np.tile(dd, (1, dd.shape[1])),
        Mu_loc,
        (n_d, n_d),
    )
    return SaddleSystem(
        space=space, coefficient=coeff, M_sigma=M_sigma, B=B, M_u=M_u
    )


def assemble_load(space, f):
    """Load vector (f, w_h) over the displacement basis, for f(x, y)."""
    return load_of_values(space, _eval_scalar(f, space.quad_points))


def load_of_values(space, vals):
    """Load vectors (f, w_h) from samples of f at the quadrature.

    vals has shape (..., T, nq); returns one row per leading index,
    shape (..., n_disp), all from one contraction.
    """
    loc = np.einsum("tq,...tq,tqa->...ta", space.quad_weights, vals, space.disp_at_quad)
    out = np.zeros(vals.shape[:-2] + (space.n_disp,))
    out[..., space.cell_disp_dofs] = loc
    return out


def disp_l2_norm(space, vals):
    """L2 norm of cellwise values sampled at the default quadrature."""
    return float(np.sqrt(np.einsum("tq,tq->", space.quad_weights, vals ** 2)))


def disp_l2_norm_cellwise(space, vals):
    return np.sqrt(np.einsum("tq,tq->t", space.quad_weights, vals ** 2))


# ----------------------------------------------------------------------
# estimator ingredients
# ----------------------------------------------------------------------

# Step of the central differences of alpha in the curl operator, relative
# to h_K (see curl_elementwise).
_FD_STEP = 1e-6


@dataclass(frozen=True)
class EstimatorOperators:
    """Sparse linear maps from global stress coefficients Sigma.

    alpha_sigma : (alpha Sigma_h) at the cell quadrature, rows (T, nq, 2)
    jump : sqrt(w) [(alpha Sigma_h) . t], left minus right, on the
        interior edges in index order, rows (n_interior, nq_edge)
    curl : sqrt(w) curl_h(alpha Sigma_h) at the cell quadrature, rows (T, nq)
    """

    alpha_sigma: sp.csr_matrix
    jump: sp.csr_matrix
    curl: sp.csr_matrix


def estimator_operators(space, coeff):
    """The EstimatorOperators of (space, coeff), built on first use.

    They are kept in the space's `operator_cache`, a WeakKeyDictionary
    keyed on the Coefficient object, so an entry lives exactly as long
    as its coefficient.
    """
    ops = space.operator_cache.get(coeff)
    if ops is None:
        ops = space.operator_cache[coeff] = _build_estimator_operators(space, coeff)
    return ops


def _build_estimator_operators(space, coeff):
    mesh = space.mesh
    n_s = space.n_stress
    dofs = space.cell_stress_dofs
    pts = space.quad_points
    sb = space.stress_at_quad  # (T, nq, nl, 2)
    alpha = coeff.alpha_at(pts)
    alpha_sigma = _cell_rows(np.einsum("tqcd,tqkd->tqck", alpha, sb), dofs, n_s)

    # tangential traces from both sides of each interior edge
    tq, tw = quadrature.segment_rule(space.edge_degree)
    interior = np.flatnonzero(~mesh.boundary_edge)
    epts, ew = quadrature.map_to_edges(mesh, tq, tw, interior)
    alpha_t = np.sqrt(ew)[..., None] * np.einsum(
        "eqcd,ec->eqd", coeff.alpha_at(epts), mesh.edge_tangents()[interior]
    )
    sides = mesh.edge_cells[interior]  # (n_int, 2): left and right cell
    traces = [
        np.einsum("eqd,eqkd->eqk", alpha_t, space.eval_stress_basis(sides[:, i], epts))
        for i in (0, 1)
    ]
    jump = _cell_rows(
        np.concatenate([traces[0], -traces[1]], axis=-1),
        dofs[sides].reshape(len(interior), 2 * space.n_loc_stress),
        n_s,
    )

    # curl(alpha phi_k), as documented in curl_elementwise
    grad = space.eval_stress_grad_basis(np.arange(mesh.num_cells), pts)
    adx = np.einsum("tqcd,tqkd->tqkc", alpha, grad[..., 0])
    ady = np.einsum("tqcd,tqkd->tqkc", alpha, grad[..., 1])
    curl = adx[..., 1] - ady[..., 0]
    if not coeff.is_constant:
        h = mesh.h_cell[:, None, None]
        for d in range(2):
            step = np.zeros((1, 1, 2))
            step[..., d] = 1.0
            delta = _FD_STEP * h * step
            ap = coeff.alpha_at(pts + delta)
            am = coeff.alpha_at(pts - delta)
            dalpha = (ap - am) / (2.0 * _FD_STEP * h[..., None])
            term = np.einsum("tqcd,tqkd->tqkc", dalpha, sb)
            if d == 0:
                curl = curl + term[..., 1]
            else:
                curl = curl - term[..., 0]
    curl = _cell_rows(np.sqrt(space.quad_weights)[..., None] * curl, dofs, n_s)
    return EstimatorOperators(alpha_sigma=alpha_sigma, jump=jump, curl=curl)


def _block_sums_sq(values, n):
    """Sums of squares of `values` in n equal consecutive blocks."""
    return (values.reshape(n, -1) ** 2).sum(axis=1)


def edge_tangential_jump(field: StressField, A=None):
    """Per-edge integrals int_E |J(alpha sigma_h . t)|^2 ds.

    Boundary edges get 0; the jump uses the canonical edge orientation.
    """
    mesh = field.space.mesh
    interior = ~mesh.boundary_edge
    jump = estimator_operators(field.space, as_coefficient(A)).jump
    out = np.zeros(mesh.num_edges)
    if interior.any():
        out[interior] = _block_sums_sq(jump @ field.coefficients, interior.sum())
    return out


def curl_elementwise(field: StressField, A=None):
    """Per-cell integrals int_K |curl_h(alpha sigma_h)|^2.

    curl g = d1 g2 - d2 g1 with g = alpha sigma_h.  Stress derivatives
    are analytic.  Only A(x) is given, not its derivative, so for
    non-constant A the derivative of alpha is a central difference with
    step 1e-6 h_K: its truncation error is O(step^2) and its round-off
    O(eps / step), which moves bound_sigma by about 1e-11 relative.
    """
    ops = estimator_operators(field.space, as_coefficient(A))
    return _block_sums_sq(ops.curl @ field.coefficients, field.space.mesh.num_cells)
