"""Raviart-Thomas stress spaces paired with discontinuous displacement spaces.

V_h = RT_l (H(div)-conforming, l in {0, 1}) and W_h = discontinuous P_l.
This module alone knows the element: its dof layout, its basis and the
derivatives of that basis.  Stress dof (l + 1) e + i is the moment of the
normal trace on edge e against the i-th of {1, 2 xi - 1}, xi running from
0 to 1 along the edge (_edge_moments); the l (l + 1) dofs of cell t follow
all edge dofs, for RT1 dof 2 E + 2 t + c being the integral of component
c over cell t (_cell_integrals).  A row of cell_stress_dofs holds a
cell's n_loc_edge edge dofs, then its cell dofs; stress_dof_entity names
the edge or cell of each dof.  The functionals are defined globally, so
the dual bases of two cells sharing an edge have identical normal traces.

Bases are monomial coefficients in local coordinates X = (x - x_c) / h_K,
which for affine triangles span the Piola-mapped reference spaces.  The
nodal stress basis is dual to the functionals within the modal fields
P_l^2 + (X, Y) P~_l; one monomial derivative map per index, built at
import, gives its divergence and gradient and the displacement gradient.
The basis and rt_interpolate take the functionals with the space's own
rules, which are exact for them: a moment's integrand has degree 2 l + 1
and the edge rule 2 l + 3; a field has degree l + 1 and the cell rule
2 l + 4.

A discrete field is its coefficient row: a stress row of length n_stress
or a displacement row of length n_disp, or a stack of such rows.  Each
space builds each of its sparse quadrature maps (stress_quad_map,
div_quad_map, disp_quad_map) on first use; loads, estimator operators
and MixedSpace.stress_values, div_values and disp_values read them, and
assembly reads the local bases at the quadrature (local_quad_values).
eval_*_basis evaluates the local bases at any points.
"""

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import Mesh


class SpaceError(Exception):
    pass


class UnsupportedIndexError(SpaceError):
    """RT index outside {0, 1}."""


def _exponents(degree):
    """Exponents of the monomials of total degree <= degree, by degree: (n, 2)."""
    return np.array([(d - j, j) for d in range(degree + 1) for j in range(d + 1)])


def _index(ex, e):
    return int((ex == e).all(axis=1).argmax())


def _derivative_map(ex):
    """D (n, 2, n) with d/dX_d X^ex[s] = sum_r D[s, d, r] X^ex[r]."""
    D = np.zeros((len(ex), 2, len(ex)))
    for s, d in zip(*np.nonzero(ex)):  # ex[s, d] X^(ex[s] - e_d)
        D[s, d, _index(ex, ex[s] - np.eye(2, dtype=int)[d])] = ex[s, d]
    return D


def _modal_fields(l, ex):
    """Modal basis of RT_l = P_l^2 + (X, Y) P~_l in the monomials ex:
    (n_modal, 2, n_mono).  P_l is the leading rows of ex and P~_l its
    monomials of degree exactly l."""
    n_p = (l + 1) * (l + 2) // 2
    fields = np.zeros((2 * n_p + l + 1, 2, len(ex)))
    for c, e in enumerate(np.eye(2, dtype=int)):
        fields[c * n_p + np.arange(n_p), c, np.arange(n_p)] = 1.0  # q e_c
        for i, s in enumerate(range(n_p - l - 1, n_p)):  # X^ex[s] (X, Y)
            fields[2 * n_p + i, c, _index(ex, ex[s] + e)] = 1.0
    return fields


# per RT index l: the monomials of degree <= l + 1 that the stress fields
# are written in (the P_l displacement monomials are their leading rows),
# their derivative map and the modal fields
_EXPONENTS = {l: _exponents(l + 1) for l in (0, 1)}
_DERIVATIVE = {l: _derivative_map(ex) for l, ex in _EXPONENTS.items()}
_MODAL = {l: _modal_fields(l, ex) for l, ex in _EXPONENTS.items()}


def _monomials(exponents, pts_local):
    """Vandermonde of local monomials at points of shape (..., 2)."""
    x = pts_local[..., 0]
    y = pts_local[..., 1]
    cols = [x ** int(px) * y ** int(py) for px, py in exponents]
    return np.stack(cols, axis=-1)


def _cell_rows(loc, dofs, n_cols):
    """CSR matrix of per-cell blocks: row i of loc (T, ..., nl) acts on dofs (T, nl).

    Every row holds nl entries in local order; a dof repeated within a
    row (both sides of an edge) stays a duplicate, which products sum.
    """
    nl = loc.shape[-1]
    cols = np.broadcast_to(
        dofs.reshape((len(dofs),) + (1,) * (loc.ndim - 2) + dofs.shape[1:]), loc.shape
    )
    indptr = np.arange(0, loc.size + 1, nl)
    return sp.csr_matrix(
        (loc.ravel(), cols.ravel(), indptr), shape=(len(indptr) - 1, n_cols)
    )


def _per_cell(mono, coeff):
    """Per-cell matmul (nc, *mid, s) x (nc, *tail, s) -> (nc, *mid, *tail), any nc."""
    nc, n_mono = len(mono), mono.shape[-1]
    mid, tail = mono.shape[1:-1], coeff.shape[1:-1]
    m = mono.reshape(nc, math.prod(mid), n_mono)
    c = coeff.reshape(nc, math.prod(tail), n_mono)
    return (m @ np.swapaxes(c, 1, 2)).reshape((nc,) + mid + tail)


class MixedSpace:
    """Paired RT_l / discontinuous P_l degree-of-freedom maps on a mesh.

    Immutable after construction; all evaluation methods are pure.

    The quadrature maps have rows in (cell, point[, component]) order:
    stress_quad_map (T nq 2 x n_stress), div_quad_map (T nq x n_stress)
    and disp_quad_map (T nq x n_disp).  Each is built on first use and
    kept, so a space holds only the maps something has read, and no
    other samples of its basis at quad_points.
    """

    def __init__(self, mesh: Mesh, rt_index: int):
        if rt_index not in (0, 1):
            raise UnsupportedIndexError(
                "RT index must be 0 or 1, got {}".format(rt_index)
            )
        l = rt_index
        self.mesh = mesh
        self.rt_index = l
        # reference edge rule (xi, weights) on [0, 1]; see edge_quadrature
        self.edge_rule = quadrature.segment_rule(2 * l + 3)
        rp, rw = quadrature.triangle_rule(2 * l + 4)
        self.quad_points, self.quad_weights = quadrature.map_to_cells(mesh, rp, rw)

        # l + 1 dofs per edge and l (l + 1) per cell; dim P_l per cell
        T, E = mesh.num_cells, mesh.num_edges
        self.n_loc_edge = 3 * (l + 1)
        self.n_loc_stress = self.n_loc_edge + l * (l + 1)
        self.n_loc_disp = (l + 1) * (l + 2) // 2
        self.n_stress = E * (l + 1) + T * l * (l + 1)
        self.n_disp = T * self.n_loc_disp

        self.exponents = _EXPONENTS[l]
        self.disp_exponents = self.exponents[: self.n_loc_disp]
        self.centroids = mesh.cell_centroids()

        self._build_dof_maps()
        self._build_nodal_basis()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_dof_maps(self):
        mesh, l = self.mesh, self.rt_index
        T, E = mesh.num_cells, mesh.num_edges
        per_cell = l * (l + 1)
        edge_dofs = (l + 1) * mesh.cell_edges[:, :, None] + np.arange(l + 1)
        cell_dofs = (l + 1) * E + per_cell * np.arange(T)[:, None] + np.arange(per_cell)
        self.cell_stress_dofs = np.hstack([edge_dofs.reshape(T, -1), cell_dofs])
        # the mesh entity of each stress dof: edge e, or cell t as E + t
        self.stress_dof_entity = np.repeat(
            np.arange(E + T), np.r_[np.full(E, l + 1), np.full(T, per_cell)]
        )
        nd = self.n_loc_disp
        self.cell_disp_dofs = nd * np.arange(T)[:, None] + np.arange(nd)[None, :]

    def _local_coords(self, cells, pts):
        """Map physical points (per cell) to local scaled coordinates."""
        c = self.centroids[cells]
        h = self.mesh.h_cell[cells]
        return (pts - c[..., None, :]) / h[..., None, None]

    def _build_nodal_basis(self):
        T, l = self.mesh.num_cells, self.rt_index
        modal, cells = _MODAL[l], np.arange(T)
        n_modal, n_mono = len(modal), modal.shape[-1]
        to_modal = modal.transpose(2, 1, 0).reshape(n_mono, 2 * n_modal)

        def modal_values(pts):  # (T, m, 2) -> (T, m, 2, n_modal)
            mono = _monomials(self.exponents, self._local_coords(cells, pts))
            return (mono @ to_modal).reshape(pts.shape + (n_modal,))

        # D[t, k, j]: functional k of cell t applied to modal field j
        ce = self.mesh.cell_edges
        pts, _ = self.edge_quadrature()
        vals = modal_values(pts[ce].reshape(T, -1, 2)).reshape((3 * T, -1, 2, n_modal))
        D = [_edge_moments(self, ce.ravel(), vals).reshape(T, -1, n_modal)]
        if l:
            D.append(_cell_integrals(self, modal_values(self.quad_points)))
        # nodal_k = sum_j C[t, j, k] modal_j with C = D^-1, so the nodal
        # coefficients are D^-T times the modal ones: one solve, no inverse
        coef = np.linalg.solve(
            np.swapaxes(np.concatenate(D, axis=1), 1, 2),
            np.broadcast_to(modal.reshape(n_modal, -1), (T, n_modal, 2 * n_mono)),
        )
        self.stress_coeff = coef.reshape(T, -1, 2, n_mono)
        # div sum_{c,s} a_cs X^ex[s] e_c = sum_{c,s,r} a_cs D[s, c, r] X^ex[r] / h
        div = np.swapaxes(_DERIVATIVE[l], 0, 1).reshape(2 * n_mono, n_mono)
        self.stress_div_coeff = coef @ div / self.mesh.h_cell[:, None, None]

    # ------------------------------------------------------------------
    # basis evaluation
    # ------------------------------------------------------------------
    def eval_stress_basis(self, cells, pts):
        """Nodal stress basis values: (..., nq, n_loc_stress, 2), a view of a
        C-ordered array in the (..., 2, n_loc_stress) order of stress_quad_map."""
        loc = self._local_coords(cells, pts)
        coeff = np.swapaxes(self.stress_coeff, 1, 2)[cells]
        return np.swapaxes(_per_cell(_monomials(self.exponents, loc), coeff), -1, -2)

    def eval_div_basis(self, cells, pts):
        """Divergence of the nodal stress basis: (..., nq, n_loc_stress)."""
        loc = self._local_coords(cells, pts)
        return _per_cell(_monomials(self.exponents, loc), self.stress_div_coeff[cells])

    def eval_stress_grad_basis(self, cells, pts):
        """Spatial gradients of the stress basis: (nc, nq, n_loc, 2, 2).

        Last two axes are (component, derivative direction); `pts` must
        have shape (nc, nq, 2).  The derivative map takes coefficients to
        those of both derivatives, in the same monomials.
        """
        loc, h = self._local_coords(cells, pts), self.mesh.h_cell[cells]
        n = len(self.exponents)
        coeff = self.stress_coeff[cells]
        D = _DERIVATIVE[self.rt_index].reshape(n, 2 * n)
        dcoeff = (coeff.reshape(-1, n) @ D).reshape(coeff.shape[:-1] + (2, n))
        grad = _per_cell(_monomials(self.exponents, loc), dcoeff)
        grad /= h[:, None, None, None, None]
        return grad

    def eval_disp_grad_basis(self, cells, pts):
        """Spatial gradients of the displacement basis for `pts` (nc, nq, 2):
        (nc, nq, n_loc_disp, 2), a view of a C-ordered (nc, nq, 2, n_loc_disp)
        array.  P_l takes the leading block of the derivative map."""
        nd = self.n_loc_disp
        D = _DERIVATIVE[self.rt_index][:nd, :, :nd].transpose(2, 1, 0).reshape(nd, 2 * nd)
        grad = (self.eval_disp_basis(cells, pts) @ D).reshape(pts.shape[:-1] + (2, nd))
        grad /= self.mesh.h_cell[cells][:, None, None, None]
        return np.swapaxes(grad, -1, -2)

    def eval_disp_basis(self, cells, pts):
        """Displacement basis (local monomials): (..., nq, n_loc_disp)."""
        loc = self._local_coords(cells, pts)
        return _monomials(self.disp_exponents, loc)

    def local_quad_values(self):
        """The local bases at quad_points, evaluated afresh on every call.

        Returns the stress basis (T, nq, 2, n_loc_stress), its divergence
        (T, nq, n_loc_stress) and the displacement basis (T, nq,
        n_loc_disp); each quadrature map is _cell_rows of one of them.
        """
        phi = np.swapaxes(self._at_quad(self.eval_stress_basis), -1, -2)
        div = self._at_quad(self.eval_div_basis)
        return phi, div, self._at_quad(self.eval_disp_basis)

    def _at_quad(self, eval_basis):
        return eval_basis(np.arange(self.mesh.num_cells), self.quad_points)

    @cached_property
    def stress_quad_map(self):
        phi = np.swapaxes(self._at_quad(self.eval_stress_basis), -1, -2)
        return _cell_rows(phi, self.cell_stress_dofs, self.n_stress)

    @cached_property
    def div_quad_map(self):
        div = self._at_quad(self.eval_div_basis)
        return _cell_rows(div, self.cell_stress_dofs, self.n_stress)

    @cached_property
    def disp_quad_map(self):
        psi = self._at_quad(self.eval_disp_basis)
        return _cell_rows(psi, self.cell_disp_dofs, self.n_disp)

    def edge_quadrature(self, edges=None):
        """The space's edge rule on (a subset of) the edges.

        Points run along each edge in its canonical direction.  Returns
        (points, weights) of shapes (E, nq, 2) and (E, nq); the weights
        include the edge lengths.
        """
        return quadrature.map_to_edges(self.mesh, *self.edge_rule, edges)

    # ------------------------------------------------------------------
    # values of coefficient rows at the cell quadrature
    # ------------------------------------------------------------------
    def stress_values(self, rows):
        """Stress rows (..., n_stress) -> values (..., T, nq, 2)."""
        return _apply(self.stress_quad_map, rows, self.quad_points.shape)

    def div_values(self, rows):
        """Stress rows (..., n_stress) -> divergence values (..., T, nq)."""
        return _apply(self.div_quad_map, rows, self.quad_weights.shape)

    def disp_values(self, rows):
        """Displacement rows (..., n_disp) -> values (..., T, nq)."""
        return _apply(self.disp_quad_map, rows, self.quad_weights.shape)


def _apply(op, rows, shape):
    rows = np.asarray(rows, dtype=float)
    values = op @ rows.reshape(-1, rows.shape[-1]).T
    return values.T.reshape(rows.shape[:-1] + shape)


def l2_project_local(space, values):
    """Cellwise L2 projection of samples onto the displacement basis.

    values (T, nq, ...) are samples at space.quad_points; the trailing
    axes are a batch.  Returns the (T, n_loc_disp, ...) local coefficients
    c with sum_q w (values - c . phi) phi = 0 on every cell.
    """
    w = space.quad_weights
    phi = space.eval_disp_basis(np.arange(len(w)), space.quad_points)  # (T, nq, nd)
    M = np.einsum("tq,tqa,tqb->tab", w, phi, phi)
    rhs = np.einsum("tq,tqa,tq...->ta...", w, phi, values)
    coef = np.linalg.solve(M, rhs.reshape(rhs.shape[:2] + (-1,)))
    return coef.reshape(rhs.shape)


def l2_project_scalar(space, fn):
    """L2 projection of a scalar function onto the displacement space.

    Returns the displacement coefficient row of P_h phi, which satisfies
    (phi - P_h phi, w_h) = 0 for all basis w_h up to quadrature accuracy.
    """
    coef = l2_project_local(space, _eval_scalar(fn, space.quad_points))
    out = np.zeros(space.n_disp)
    out[space.cell_disp_dofs] = coef
    return out


def fortin_interpolate(space, fn):
    """Commuting interpolant onto RT_l of a vector function fn(x, y).

    Satisfies div(Pi_h v) = P_h(div v) up to quadrature accuracy.
    Returns the stress coefficient row.
    """
    return rt_interpolate(space, lambda cells, pts: _eval_vector(fn, pts))


def rt_interpolate(space, sample):
    """RT_l degrees of freedom of a vector field from its samples.

    sample(cells, pts) returns the field at points pts (n, nq, 2) of the
    cells (n,), shape (n, nq, 2, ...); the trailing axes are a batch.  It
    is called at space.edge_quadrature(), each edge in its cell
    Mesh.edge_cells[:, 0], and, if the space has cell dofs, at
    space.quad_points.  Returns the (n_stress, ...) degrees of freedom in
    the layout of the module docstring.
    """
    mesh = space.mesh
    edge_pts, _ = space.edge_quadrature()
    edge_values = sample(mesh.edge_cells[:, 0], edge_pts)
    dofs = [_edge_moments(space, np.arange(mesh.num_edges), edge_values)]
    if space.rt_index:
        cells = np.arange(mesh.num_cells)
        dofs.append(_cell_integrals(space, sample(cells, space.quad_points)))
    return np.concatenate([d.reshape((-1,) + d.shape[2:]) for d in dofs])


def _edge_moments(space, edges, values):
    """Moments of the normal traces on `edges` against {1, 2 xi - 1}[:l + 1]:
    (len(edges), l + 1, ...) from samples (len(edges), nq_e, 2, ...) of a
    field at space.edge_quadrature(edges), the trailing axes a batch."""
    mesh, (xi, w) = space.mesh, space.edge_rule
    tests = w * np.stack([np.ones_like(xi), 2.0 * xi - 1.0])[: space.rt_index + 1]
    hn = mesh.h_edge[edges, None] * mesh.edge_normals()[edges]
    kernel = hn[:, None, None, :] * tests[..., None]  # [e, i, q, c] = |e| w_q test_i(xi_q) n_c
    ne, nt = len(edges), len(tests)
    moments = kernel.reshape(ne, nt, -1) @ values.reshape(ne, 2 * len(xi), -1)
    return moments.reshape((ne, nt) + values.shape[3:])


def _cell_integrals(space, values):
    """Integrals over every cell of the components of values (T, nq, 2, ...),
    samples at space.quad_points: (T, 2, ...)."""
    w = space.quad_weights
    integrals = w[:, None, :] @ values.reshape(values.shape[:2] + (-1,))
    return integrals.reshape((len(w),) + values.shape[2:])


def _eval_scalar(fn, pts):
    vals = fn(pts[..., 0], pts[..., 1])
    return np.broadcast_to(np.asarray(vals, dtype=float), pts.shape[:-1])


def _eval_vector(fn, pts):
    """Vector functions take (x, y) arrays and return shape x.shape + (2,)."""
    vals = np.asarray(fn(pts[..., 0], pts[..., 1]), dtype=float)
    return np.broadcast_to(vals, pts.shape)
