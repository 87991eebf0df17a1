"""Sparse operators and functionals of the discrete mixed problem.

Builds the alpha-weighted stress mass matrix (alpha = A^-1), the
divergence coupling and the displacement mass matrix, plus the load
vectors and the edge/cell quantities consumed by the estimators.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .spaces import MixedSpace, _cell_rows, _eval_scalar


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
        else:
            A = np.eye(2) if entries is None else np.asarray(entries, dtype=float)
            if A.shape != (2, 2) or not np.allclose(A, A.T):
                raise AssemblyError("constant coefficient must be symmetric 2x2")
            self.kind = "constant"
            self.A = A

    @property
    def is_constant(self):
        return self.kind == "constant"

    def a_at(self, pts):
        """A at points (..., 2) -> (..., 2, 2)."""
        shape = pts.shape[:-1]
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


def _block_diag(blocks):
    """Block-diagonal BSR matrix of (..., 2, 2) blocks, one per stress sample."""
    blocks = blocks.reshape(-1, 2, 2)
    k = np.arange(len(blocks) + 1)
    return sp.bsr_matrix((blocks, k[:-1], k), shape=(2 * k[-1], 2 * k[-1]))


def assemble_system(space, A=None):
    """Assemble M_sigma, B and M_u for coefficient A (identity default).

    With S, D and V the stress, divergence and displacement quadrature
    maps and W the quadrature weights: M_sigma = S^T blk(w alpha) S,
    B = V^T W D and M_u = V^T W V.
    """
    coeff = as_coefficient(A)
    w = space.quad_weights
    alpha = coeff.alpha_at(space.quad_points)  # (T, nq, 2, 2)
    S, V = space.stress_quad_map, space.disp_quad_map
    M_sigma = S.T @ _block_diag(w[..., None, None] * alpha) @ S
    VtW = (V.T @ sp.diags(w.ravel())).tocsr()
    return SaddleSystem(
        space=space,
        coefficient=coeff,
        M_sigma=M_sigma.tocsr(),
        B=VtW @ space.div_quad_map,
        M_u=VtW @ V,
    )


def assemble_load(space, f):
    """Load vector (f, w_h) over the displacement basis, for f(x, y)."""
    return load_of_values(space, _eval_scalar(f, space.quad_points))


def load_of_values(space, vals):
    """Load vectors (f, w_h) from samples of f at the quadrature.

    vals has shape (..., T, nq); returns one row per leading index,
    shape (..., n_disp), all from one product V^T (w f) with the
    displacement quadrature map V.
    """
    w = space.quad_weights
    wf = (w * vals).reshape(-1, w.size)
    return (space.disp_quad_map.T @ wf.T).T.reshape(vals.shape[:-2] + (-1,))


def disp_l2_norm(space, vals):
    """L2 norm of cellwise values sampled at the default quadrature."""
    return float(np.sqrt(np.einsum("tq,tq->", space.quad_weights, vals ** 2)))


def disp_l2_norm_cellwise(space, vals):
    return np.sqrt(np.einsum("tq,tq->t", space.quad_weights, vals ** 2))


# ----------------------------------------------------------------------
# estimator ingredients
# ----------------------------------------------------------------------

# Step of the central differences of alpha in the curl operator, relative
# to h_K (see EstimatorOperators).
_FD_STEP = 1e-6


@dataclass(frozen=True)
class EstimatorOperators:
    """Sparse linear maps whose images the spatial estimator measures.

    All but cell_jump act on coefficient vectors and carry sqrt(w) of
    their quadrature, so a cellwise L2 norm is a block norm of the image.

    alpha_sigma : alpha Sigma_h at the cell quadrature, rows (T, nq, 2)
    grad_u : grad_h U at the cell quadrature, rows (T, nq, 2), on
        displacement coefficients; the zero map for RT0
    jump : (alpha Sigma_h) . t, left minus right cell of Mesh.edge_cells,
        on the interior edges in index order, rows (n_interior, nq_edge);
        t is the canonical edge tangent, and boundary edges carry no jump
    cell_jump : (T, n_interior * nq_edge) map from squared jump samples to
        sum_E h_E / 2 int_E |jump|^2 over the interior edges E of a cell
    curl : curl_h(alpha Sigma_h) = d1 g2 - d2 g1 of g = alpha Sigma_h at
        the cell quadrature, rows (T, nq).  Stress derivatives are exact.
        Only A(x) is given, so for non-constant A the derivative of alpha
        is a central difference with step 1e-6 h_K: truncation error
        O(step^2), round-off O(eps / step).
    """

    alpha_sigma: sp.csr_matrix
    grad_u: sp.csr_matrix
    jump: sp.csr_matrix
    cell_jump: sp.csr_matrix
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
    T = mesh.num_cells
    n_s = space.n_stress
    dofs = space.cell_stress_dofs
    pts = space.quad_points
    sqrt_w = np.sqrt(space.quad_weights)[..., None]  # (T, nq, 1)
    alpha = coeff.alpha_at(pts)
    alpha_sigma = (
        _block_diag(sqrt_w[..., None] * alpha) @ space.stress_quad_map
    ).tocsr()

    # the RT1 displacement basis {1, X, Y}, X = (x - x_c) / h_K, has
    # gradients 0, (1/h_K, 0) and (0, 1/h_K)
    if space.rt_index == 0:
        grad_u = sp.csr_matrix((alpha_sigma.shape[0], space.n_disp))
    else:
        loc = np.zeros(pts.shape + (3,))
        loc[..., 0, 1] = loc[..., 1, 2] = sqrt_w[..., 0] / mesh.h_cell[:, None]
        grad_u = _cell_rows(loc, space.cell_disp_dofs, space.n_disp)

    # tangential traces from both sides of each interior edge
    interior = np.flatnonzero(~mesh.boundary_edge)
    epts, ew = space.edge_quadrature(interior)
    n_int, nq_e = ew.shape
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
        dofs[sides].reshape(n_int, 2 * space.n_loc_stress),
        n_s,
    )
    samples = np.tile(np.arange(n_int * nq_e).reshape(n_int, nq_e), 2)
    cell_jump = sp.csr_matrix(
        (
            np.repeat(0.5 * mesh.h_edge[interior], 2 * nq_e),
            (np.repeat(sides, nq_e, axis=1).ravel(), samples.ravel()),
        ),
        shape=(T, n_int * nq_e),
    )

    # curl(alpha phi_k): alpha times the derivatives of phi_k, plus the
    # derivatives of alpha times phi_k
    grad = space.eval_stress_grad_basis(np.arange(T), pts)
    adx = np.einsum("tqcd,tqkd->tqkc", alpha, grad[..., 0])
    ady = np.einsum("tqcd,tqkd->tqkc", alpha, grad[..., 1])
    curl = adx[..., 1] - ady[..., 0]
    if not coeff.is_constant:
        sb = space.eval_stress_basis(np.arange(T), pts)
        step = _FD_STEP * mesh.h_cell[:, None, None]
        for d, sign in ((0, 1.0), (1, -1.0)):
            delta = step * np.eye(2)[d]
            ap = coeff.alpha_at(pts + delta)
            am = coeff.alpha_at(pts - delta)
            dalpha = (ap - am) / (2.0 * step[..., None])
            curl = curl + sign * np.einsum("tqcd,tqkd->tqkc", dalpha, sb)[..., 1 - d]
    curl = _cell_rows(sqrt_w * curl, dofs, n_s)
    return EstimatorOperators(
        alpha_sigma=alpha_sigma, grad_u=grad_u, jump=jump, cell_jump=cell_jump, curl=curl
    )
