"""Sparse operators and functionals of the discrete mixed problem.

Builds the alpha-weighted stress mass matrix (alpha = A^-1), the
divergence coupling and the displacement mass matrix, plus the load
vectors.  The assembled SaddleSystem owns everything derived from its
(space, A): alpha at the cell quadrature, the matrices, and the
estimator operators, which it builds from that alpha on first use.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import sympy as sym

from .spaces import MixedSpace, _cell_rows

_X, _Y, _T = sym.symbols("x y t", real=True)


def _closed_form(expr):
    """Vectorized (x, y, t) -> values of a sympy scalar or Matrix.

    x, y and t broadcast (t of shape (m, 1, ..., 1) gives m times in one
    call).  Values have the broadcast shape plus the matrix axes: none for
    a scalar, (n,) for an n x 1 Matrix and the Matrix shape otherwise.

    Each entry is evaluated as a separated sum sum_i g_i(x, y) h_i(t): its
    terms are split into a factor free of t and a factor in t, and the
    spatial factors of one time factor are summed.  A term whose time
    factor still holds x or y is kept whole as its own factor, so the sum
    is the entry exactly; nothing is expanded or simplified.  One
    lambdified function with common subexpression elimination returns
    every factor, the g_i at the shape of x and y and the h_i at the
    shape of t, so the spatial work is done once per call however many
    times it carries; only the products g_i h_i have the broadcast shape.

    closed_form.at(x, y) fixes a point set: it evaluates the g_i there
    once and returns a function of 1-d times t giving the values point
    major, shape (x's shape) + matrix axes + (len(t),), as one product
    G H(t) with the h_i taken at the first point.  An expression with a
    whole term has no such split; its function makes the full call.
    """
    if isinstance(expr, sym.MatrixBase):
        axes = (expr.rows,) if expr.cols == 1 else expr.shape
    else:
        axes, expr = (), sym.Matrix([expr])
    pairs = []  # per entry, its (g_i, h_i) factor pairs
    whole = False
    for entry in expr:
        groups = {}
        for term in sym.Add.make_args(entry):
            g, h = term.as_independent(_T, as_Add=False)
            if h.has(_X, _Y):
                g, h, whole = sym.S.One, term, True
            groups.setdefault(h, []).append(g)
        pairs.append([(sym.Add(*gs), h) for h, gs in groups.items()])
    flat = [factor for entry in pairs for pair in entry for factor in pair]
    fn = sym.lambdify((_X, _Y, _T), flat, modules="numpy", cse=True)
    owner = [i for i, entry in enumerate(pairs) for _ in entry]

    def closed_form(x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        factors = iter(fn(x, y, t))
        out = np.empty(shape + (len(pairs),))
        for i, entry in enumerate(pairs):
            np.multiply(next(factors), next(factors), out=out[..., i])
            for _ in entry[1:]:
                out[..., i] += next(factors) * next(factors)
        return out.reshape(shape + axes)

    def at(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if whole:
            return lambda t: np.moveaxis(
                closed_form(x[..., None], y[..., None], t), len(shape), -1
            )
        # the g_i do not depend on t; t = 0 is a time every run evaluates
        G = np.zeros(shape + (len(pairs), len(owner)))
        for k, (i, g) in enumerate(zip(owner, fn(x, y, 0.0)[::2])):
            G[..., i, k] = g
        G = G.reshape(-1, len(owner))
        x0, y0 = x.flat[0], y.flat[0]

        def values(t):
            H = np.array([np.broadcast_to(h, np.shape(t)) for h in fn(x0, y0, t)[1::2]])
            return (G @ H).reshape(shape + axes + (len(t),))

        return values

    closed_form.at = at
    return closed_form


class AssemblyError(Exception):
    pass


class CoefficientNotSPDError(AssemblyError):
    """Coefficient matrix A has a non-positive eigenvalue somewhere."""


class Coefficient:
    """Symmetric uniformly positive definite coefficient A(x).

    `entries` is None (identity), a constant (2, 2) array, or a symmetric
    2 x 2 sympy Matrix in x and y, matched by name.  A variable A is
    lambdified here, and its derivatives on the first dalpha_at.
    """

    def __init__(self, entries=None):
        if callable(entries):
            raise AssemblyError(
                "A must be None, a constant 2x2 array or a sympy Matrix in x and y"
            )
        self.expr = self._dA = None
        if isinstance(entries, sym.MatrixBase) and entries.free_symbols:
            other = entries.free_symbols - {_X, _Y}
            A = entries.xreplace({s: sym.Symbol(s.name, real=True) for s in other})
            if not A.free_symbols <= {_X, _Y}:
                raise AssemblyError("A may depend on x and y only, not on {}".format(
                    A.free_symbols - {_X, _Y}))
            if A.shape != (2, 2) or A[0, 1] != A[1, 0]:
                raise AssemblyError("A must be a symmetric 2x2 Matrix, got {}".format(A))
            self.expr, self._A = A, _closed_form(A)
        else:
            A = np.eye(2) if entries is None else np.asarray(entries, dtype=float)
            if A.shape != (2, 2) or not np.allclose(A, A.T):
                raise AssemblyError("constant coefficient must be symmetric 2x2")
            self._A = lambda x, y, t: np.broadcast_to(A, np.shape(x) + (2, 2))

    @property
    def is_constant(self):
        return self.expr is None

    def alpha_at(self, pts):
        """alpha = adj(A) / det(A) at points (..., 2) -> (..., 2, 2), if A is SPD."""
        A = self._A(pts[..., 0], pts[..., 1], 0.0)
        a, b, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
        det = a * d - b * b
        if np.any(a <= 0.0) or np.any(det <= 0.0):
            raise CoefficientNotSPDError("A has a non-positive eigenvalue")
        adj = np.stack([np.stack([d, -b], -1), np.stack([-b, a], -1)], -2)
        return adj / det[..., None, None]

    def dalpha_at(self, pts, alpha):
        """(d_x alpha, d_y alpha) = -alpha (dA) alpha at points: (2, ..., 2, 2).

        alpha is alpha_at(pts), which the caller already holds.
        """
        if self.is_constant:
            return np.zeros((2,) + pts.shape[:-1] + (2, 2))
        if self._dA is None:
            self._dA = _closed_form(self.expr.diff(_X).col_join(self.expr.diff(_Y)))
        dA = self._dA(pts[..., 0], pts[..., 1], 0.0).reshape(pts.shape[:-1] + (2, 2, 2))
        return -alpha @ np.moveaxis(dA, -3, 0) @ alpha


@dataclass
class SaddleSystem:
    """The discrete mixed forms of one (space, coefficient) pair.

    alpha : A^-1 at space.quad_points, (T, nq, 2, 2)
    stress_blocks : per-cell (alpha phi_j, phi_i), (T, n_loc_stress, n_loc_stress)
    div_blocks : per-cell (div phi_j, psi_a), (T, n_loc_disp, n_loc_stress)
    disp_blocks : per-cell (psi_b, psi_a), (T, n_loc_disp, n_loc_disp)
    M_sigma : (alpha Sigma, v), n_stress x n_stress, SPD
    B : (div Sigma, w), n_disp x n_stress
    M_u : (U, w), n_disp x n_disp, cell-block-diagonal SPD
    estimator_ops : the EstimatorOperators, built from alpha on first use

    The blocks are in the local dof order of space.cell_stress_dofs and
    space.cell_disp_dofs; M_sigma, B and M_u are their scattered sums, and
    solver._condense condenses them cell by cell.
    """

    space: MixedSpace
    coefficient: Coefficient
    alpha: np.ndarray = field(repr=False)
    stress_blocks: np.ndarray = field(repr=False)
    div_blocks: np.ndarray = field(repr=False)
    disp_blocks: np.ndarray = field(repr=False)
    M_sigma: sp.csr_matrix
    B: sp.csr_matrix
    M_u: sp.csr_matrix
    _factor_cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def estimator_ops(self):
        return _build_estimator_ops(self)


def _block_diag(blocks):
    """Block-diagonal BSR matrix of (..., 2, 2) blocks, one per stress sample."""
    blocks = blocks.reshape(-1, 2, 2)
    k = np.arange(len(blocks) + 1)
    return sp.bsr_matrix((blocks, k[:-1], k), shape=(2 * k[-1], 2 * k[-1]))


def _scatter(blocks, rows, cols, shape):
    """CSR sum of per-cell blocks (T, a, b) at dofs rows (T, a) x cols (T, b)."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape)
    c = np.broadcast_to(cols[:, None, :], blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (r.ravel(), c.ravel())), shape=shape)


def assemble_system(space, A=None):
    """Assemble M_sigma, B and M_u for coefficient A (identity default).

    With phi, div phi and psi the local bases at the cell quadrature
    (MixedSpace.local_quad_values, evaluated for this call) and w its
    weights, each cell's blocks are batched matmuls: sum_q w alpha phi_j .
    phi_i, sum_q w div phi_j psi_a and sum_q w psi_b psi_a.  The matrices
    are scattered from them; no quadrature map of `space` is read or built.
    """
    coeff = A if isinstance(A, Coefficient) else Coefficient(A)
    w = space.quad_weights
    alpha = coeff.alpha_at(space.quad_points)  # (T, nq, 2, 2)
    phi, div, psi = space.local_quad_values()
    T, nl = len(w), space.n_loc_stress
    w_psi_t = np.swapaxes(w[..., None] * psi, 1, 2)  # (T, nd, nq)
    w_alpha_phi = ((w[..., None, None] * alpha) @ phi).reshape(T, -1, nl)
    stress_blocks = np.swapaxes(phi.reshape(T, -1, nl), 1, 2) @ w_alpha_phi
    div_blocks = w_psi_t @ div
    disp_blocks = w_psi_t @ psi
    sd, dd = space.cell_stress_dofs, space.cell_disp_dofs
    n_s, n_d = space.n_stress, space.n_disp
    return SaddleSystem(
        space=space,
        coefficient=coeff,
        alpha=alpha,
        stress_blocks=stress_blocks,
        div_blocks=div_blocks,
        disp_blocks=disp_blocks,
        M_sigma=_scatter(stress_blocks, sd, sd, (n_s, n_s)),
        B=_scatter(div_blocks, dd, sd, (n_d, n_s)),
        M_u=_scatter(disp_blocks, dd, dd, (n_d, n_d)),
    )


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

@dataclass(frozen=True)
class EstimatorOperators:
    """Sparse linear maps whose images the spatial estimator measures.

    Owned by a SaddleSystem (SaddleSystem.estimator_ops), which builds
    them on first use from its own alpha.  All but cell_jump act on
    coefficient vectors and carry sqrt(w) of their quadrature, so a
    cellwise L2 norm is a block norm of the image.

    alpha_sigma : alpha Sigma_h at the cell quadrature, rows (T, nq, 2)
    grad_u : the broken gradient grad_h U at the cell quadrature, rows
        (T, nq, 2), on displacement coefficients, from
        MixedSpace.eval_disp_grad_basis; the zero map, with no stored
        entries, for RT0, whose displacements are constant on each cell
    jump : (alpha Sigma_h) . t, left minus right cell of Mesh.edge_cells,
        on the interior edges in index order, rows (n_interior, nq_edge);
        t is the canonical edge tangent, and boundary edges carry no jump
    cell_jump : (T, n_interior * nq_edge) map from squared jump samples to
        sum_E h_E / 2 int_E |jump|^2 over the interior edges E of a cell
    curl : curl_h(alpha Sigma_h) = d1 g2 - d2 g1 of g = alpha Sigma_h at
        the cell quadrature, rows (T, nq).  The derivatives of the stress
        basis and of alpha (Coefficient.dalpha_at) are exact.
    """

    alpha_sigma: sp.csr_matrix
    grad_u: sp.csr_matrix
    jump: sp.csr_matrix
    cell_jump: sp.csr_matrix
    curl: sp.csr_matrix


def _build_estimator_ops(system):
    space, coeff, alpha = system.space, system.coefficient, system.alpha
    mesh = space.mesh
    T = mesh.num_cells
    n_s = space.n_stress
    dofs = space.cell_stress_dofs
    pts = space.quad_points
    sqrt_w = np.sqrt(space.quad_weights)[..., None]  # (T, nq, 1)
    alpha_sigma = (
        _block_diag(sqrt_w[..., None] * alpha) @ space.stress_quad_map
    ).tocsr()

    grad = np.swapaxes(space.eval_disp_grad_basis(np.arange(T), pts), -1, -2)
    grad_u = _cell_rows(sqrt_w[..., None] * grad, space.cell_disp_dofs, space.n_disp)
    grad_u.eliminate_zeros()  # all of it for RT0: constants have no slope

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

    # curl(g) = d_x g_2 - d_y g_1 of g = alpha phi_k: alpha times the
    # derivatives of phi_k, plus the derivatives of alpha times phi_k
    rows = "tqd,tqkd->tqk"
    grad = space.eval_stress_grad_basis(np.arange(T), pts)
    curl = np.einsum(rows, alpha[..., 1, :], grad[..., 0])
    curl -= np.einsum(rows, alpha[..., 0, :], grad[..., 1])
    if not coeff.is_constant:
        sb = space.eval_stress_basis(np.arange(T), pts)
        dx, dy = coeff.dalpha_at(pts, alpha)
        curl += np.einsum(rows, dx[..., 1, :], sb) - np.einsum(rows, dy[..., 0, :], sb)
    curl = _cell_rows(sqrt_w * curl, dofs, n_s)
    return EstimatorOperators(
        alpha_sigma=alpha_sigma, grad_u=grad_u, jump=jump, cell_jump=cell_jump, curl=curl
    )
