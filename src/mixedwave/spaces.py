"""Raviart-Thomas stress spaces paired with discontinuous displacement spaces.

V_h = RT_l (H(div)-conforming, l in {0, 1}) and W_h = discontinuous P_l.
Stress degrees of freedom are edge moments of the normal trace against
{1, xi} taken in the canonical edge direction, plus (for l = 1) cell
moments against the constant vector fields.  Because the functionals are
defined globally, the per-cell dual bases of the two cells sharing an
edge have identical normal traces, which gives normal continuity without
any sign bookkeeping.

Bases are represented by monomial coefficients in cell-local scaled
coordinates X = (x - x_c) / h_K; for affine triangles this intrinsic
construction spans the same space as the Piola-mapped reference basis.
"""

import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import Mesh


class SpaceError(Exception):
    pass


class UnsupportedIndexError(SpaceError):
    """RT index outside {0, 1}."""


class QuadratureOrderTooLowError(SpaceError):
    pass


class CellIndexOutOfRangeError(SpaceError):
    pass


# monomial exponents per RT index (shared by both vector components)
_EXPONENTS = {
    0: np.array([[0, 0], [1, 0], [0, 1]]),
    1: np.array([[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]),
}


def _modal_fields(l):
    """Modal basis of RT_l in local coordinates: (n_modal, 2, n_mono)."""
    nm = len(_EXPONENTS[l])
    if l == 0:
        fields = np.zeros((3, 2, nm))
        fields[0, 0, 0] = 1.0  # (1, 0)
        fields[1, 1, 0] = 1.0  # (0, 1)
        fields[2, 0, 1] = 1.0  # (X, Y)
        fields[2, 1, 2] = 1.0
        div = np.zeros((3, nm))
        div[2, 0] = 2.0
    else:
        fields = np.zeros((8, 2, nm))
        for i, mono in enumerate([0, 1, 2]):  # (q, 0) for q in {1, X, Y}
            fields[i, 0, mono] = 1.0
        for i, mono in enumerate([0, 1, 2]):  # (0, q)
            fields[3 + i, 1, mono] = 1.0
        fields[6, 0, 3] = 1.0  # X * (X, Y) = (X^2, XY)
        fields[6, 1, 4] = 1.0
        fields[7, 0, 4] = 1.0  # Y * (X, Y) = (XY, Y^2)
        fields[7, 1, 5] = 1.0
        div = np.zeros((8, nm))
        div[1, 0] = 1.0  # d/dX of (X, 0)
        div[5, 0] = 1.0  # d/dY of (0, Y)
        div[6, 1] = 3.0  # div (X^2, XY) = 3X
        div[7, 2] = 3.0  # div (XY, Y^2) = 3Y
    return fields, div


def _monomials(exponents, pts_local):
    """Vandermonde of local monomials at points of shape (..., 2)."""
    x = pts_local[..., 0]
    y = pts_local[..., 1]
    cols = [x ** int(px) * y ** int(py) for px, py in exponents]
    return np.stack(cols, axis=-1)


def _scatter(rows, cols, vals, shape):
    m = sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()
    m.sum_duplicates()
    return m


def _cell_rows(loc, dofs, n_cols):
    """CSR matrix of per-cell blocks: row i of loc (T, ..., nl) acts on dofs (T, nl)."""
    n_rows = loc[..., 0].size
    cols = np.broadcast_to(
        dofs.reshape((len(dofs),) + (1,) * (loc.ndim - 2) + dofs.shape[1:]), loc.shape
    )
    return _scatter(
        np.repeat(np.arange(n_rows), loc.shape[-1]), cols, loc, (n_rows, n_cols)
    )


class MixedSpace:
    """Paired RT_l / discontinuous P_l degree-of-freedom maps on a mesh.

    Immutable after construction, except for `operator_cache`, where
    assembly.estimator_operators keeps the estimator operators of each
    Coefficient used on this space, and the quadrature maps, built on
    first use; all evaluation methods are pure.
    """

    def __init__(self, mesh: Mesh, rt_index: int, cell_degree=None, edge_degree=None):
        if rt_index not in (0, 1):
            raise UnsupportedIndexError(
                "RT index must be 0 or 1, got {}".format(rt_index)
            )
        l = rt_index
        if cell_degree is None:
            cell_degree = 2 * l + 4
        if edge_degree is None:
            edge_degree = 2 * l + 3
        if cell_degree < 2 * l or edge_degree < 2 * l:
            raise QuadratureOrderTooLowError(
                "quadrature degree too low for RT index {}".format(l)
            )
        self.mesh = mesh
        self.rt_index = l
        self.cell_degree = cell_degree
        self.edge_degree = edge_degree

        T, E = mesh.num_cells, mesh.num_edges
        self.n_stress = E * (l + 1) + (2 * T if l == 1 else 0)
        self.n_disp = T * (1 if l == 0 else 3)
        self.n_loc_stress = 3 * (l + 1) + (2 if l == 1 else 0)
        self.n_loc_disp = 1 if l == 0 else 3

        self.exponents = _EXPONENTS[l]
        self.disp_exponents = _EXPONENTS[1][: self.n_loc_disp]
        self.centroids = mesh.cell_centroids()

        self._build_dof_maps()
        self._build_nodal_basis()
        self._build_quad_cache()
        self.operator_cache = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_dof_maps(self):
        mesh, l = self.mesh, self.rt_index
        T, E = mesh.num_cells, mesh.num_edges
        ce = mesh.cell_edges
        if l == 0:
            self.cell_stress_dofs = ce.copy()
        else:
            edge_dofs = np.stack([2 * ce, 2 * ce + 1], axis=2).reshape(T, 6)
            interior = 2 * E + 2 * np.arange(T)[:, None] + np.array([[0, 1]])
            self.cell_stress_dofs = np.hstack([edge_dofs, interior])
        nd = self.n_loc_disp
        self.cell_disp_dofs = nd * np.arange(T)[:, None] + np.arange(nd)[None, :]

    def _local_coords(self, cells, pts):
        """Map physical points (per cell) to local scaled coordinates."""
        c = self.centroids[cells]
        h = self.mesh.h_cell[cells]
        return (pts - c[..., None, :]) / h[..., None, None]

    def _build_nodal_basis(self):
        mesh, l = self.mesh, self.rt_index
        T = mesh.num_cells
        nl = self.n_loc_stress
        modal, modal_div = _modal_fields(l)
        n_modal = len(modal)

        D = np.zeros((T, nl, n_modal))

        # edge-moment rows: exact for (modal deg l+1) x (q deg l)
        tq, tw = quadrature.segment_rule(2 * l + 1)
        normals = mesh.edge_normals()
        for j in range(3):  # local edge slot, opposite vertex j
            e = mesh.cell_edges[:, j]
            a = mesh.vertices[mesh.edges[e, 0]]
            b = mesh.vertices[mesh.edges[e, 1]]
            pts = a[:, None, :] + tq[None, :, None] * (b - a)[:, None, :]
            w = mesh.h_edge[e, None] * tw[None, :]  # (T, nq)
            loc = self._local_coords(np.arange(T), pts)
            mono = _monomials(self.exponents, loc)  # (T, nq, n_mono)
            vals = np.einsum("mcs,tqs->tqmc", modal, mono)  # (T, nq, n_modal, 2)
            vn = np.einsum("tqmc,tc->tqm", vals, normals[e])
            for i in range(l + 1):
                q = np.ones_like(tq) if i == 0 else 2.0 * tq - 1.0
                D[:, j * (l + 1) + i, :] = np.einsum("tq,tqm->tm", w * q[None, :], vn)

        if l == 1:
            rp, rw = quadrature.triangle_rule(l + 1)
            pts, w = quadrature.map_to_cells(mesh, rp, rw)
            loc = self._local_coords(np.arange(T), pts)
            mono = _monomials(self.exponents, loc)
            vals = np.einsum("mcs,tqs->tqmc", modal, mono)
            D[:, 6, :] = np.einsum("tq,tqm->tm", w, vals[..., 0])
            D[:, 7, :] = np.einsum("tq,tqm->tm", w, vals[..., 1])

        C = np.linalg.inv(D)  # nodal_k = sum_j C[t, j, k] modal_j
        self.stress_coeff = np.einsum("tjk,jcs->tkcs", C, modal)  # (T, nl, 2, n_mono)
        h = mesh.h_cell
        self.stress_div_coeff = (
            np.einsum("tjk,js->tks", C, modal_div) / h[:, None, None]
        )

    def _build_quad_cache(self):
        mesh = self.mesh
        rp, rw = quadrature.triangle_rule(self.cell_degree)
        pts, w = quadrature.map_to_cells(mesh, rp, rw)
        self.quad_points = pts  # (T, nq, 2)
        self.quad_weights = w  # (T, nq)
        all_cells = np.arange(mesh.num_cells)
        self.stress_at_quad = self.eval_stress_basis(all_cells, pts)
        self.div_at_quad = self.eval_div_basis(all_cells, pts)
        self.disp_at_quad = self.eval_disp_basis(all_cells, pts)

    # Sparse maps from global coefficients to values at the cell
    # quadrature, rows in (cell, point[, component]) order.
    @cached_property
    def stress_quad_map(self):
        loc = np.swapaxes(self.stress_at_quad, -1, -2)  # (T, nq, 2, nl)
        return _cell_rows(loc, self.cell_stress_dofs, self.n_stress)

    @cached_property
    def div_quad_map(self):
        return _cell_rows(self.div_at_quad, self.cell_stress_dofs, self.n_stress)

    @cached_property
    def disp_quad_map(self):
        return _cell_rows(self.disp_at_quad, self.cell_disp_dofs, self.n_disp)

    # ------------------------------------------------------------------
    # basis evaluation
    # ------------------------------------------------------------------
    def eval_stress_basis(self, cells, pts):
        """Nodal stress basis values: (..., nq, n_loc_stress, 2)."""
        loc = self._local_coords(cells, pts)
        mono = _monomials(self.exponents, loc)
        return np.einsum("t...s,tkcs->t...kc", mono, self.stress_coeff[cells])

    def eval_div_basis(self, cells, pts):
        """Divergence of the nodal stress basis: (..., nq, n_loc_stress)."""
        loc = self._local_coords(cells, pts)
        mono = _monomials(self.exponents, loc)
        return np.einsum("t...s,tks->t...k", mono, self.stress_div_coeff[cells])

    def eval_stress_grad_basis(self, cells, pts):
        """Spatial gradients of the stress basis: (nc, nq, n_loc, 2, 2).

        Last two axes are (component, derivative direction); `pts` must
        have shape (nc, nq, 2).
        """
        loc = self._local_coords(cells, pts)
        exps = self.exponents
        h = self.mesh.h_cell[cells]
        out = np.zeros(loc.shape[:2] + (self.n_loc_stress, 2, 2))
        for d in range(2):
            dex = exps.copy()
            fac = exps[:, d].astype(float)
            dex[:, d] = np.maximum(dex[:, d] - 1, 0)
            mono = _monomials(dex, loc) * fac
            out[..., d] = np.einsum(
                "tqs,tkcs->tqkc", mono, self.stress_coeff[cells]
            )
        return out / h[:, None, None, None, None]

    def eval_disp_basis(self, cells, pts):
        """Displacement basis (local monomials): (..., nq, n_loc_disp)."""
        loc = self._local_coords(cells, pts)
        return _monomials(self.disp_exponents, loc)

    # ------------------------------------------------------------------
    # fields
    # ------------------------------------------------------------------
    def stress_field(self, coefficients):
        return StressField(self, np.asarray(coefficients, dtype=float))

    def disp_field(self, coefficients):
        return DispField(self, np.asarray(coefficients, dtype=float))

    def zero_stress(self):
        return self.stress_field(np.zeros(self.n_stress))


class StressField:
    """RT_l field given by a global coefficient vector."""

    def __init__(self, space, coefficients):
        if coefficients.shape != (space.n_stress,):
            raise SpaceError("stress coefficient vector has wrong length")
        self.space = space
        self.coefficients = coefficients

    def local_coefficients(self, cells=None):
        dofs = self.space.cell_stress_dofs
        if cells is not None:
            dofs = dofs[cells]
        return self.coefficients[dofs]

    def at_quad(self):
        """Values at the space's default cell quadrature: (T, nq, 2)."""
        space = self.space
        values = space.stress_quad_map @ self.coefficients
        return values.reshape(space.quad_points.shape)

    def div_at_quad(self):
        space = self.space
        return (space.div_quad_map @ self.coefficients).reshape(space.quad_weights.shape)

    def eval(self, cells, pts):
        basis = self.space.eval_stress_basis(cells, pts)
        return np.einsum("t...kc,tk->t...c", basis, self.local_coefficients(cells))


class DispField:
    """Discontinuous P_l field given by a global coefficient vector."""

    def __init__(self, space, coefficients):
        if coefficients.shape != (space.n_disp,):
            raise SpaceError("displacement coefficient vector has wrong length")
        self.space = space
        self.coefficients = coefficients

    def local_coefficients(self, cells=None):
        dofs = self.space.cell_disp_dofs
        if cells is not None:
            dofs = dofs[cells]
        return self.coefficients[dofs]

    def at_quad(self):
        space = self.space
        return (space.disp_quad_map @ self.coefficients).reshape(space.quad_weights.shape)

    def eval(self, cells, pts):
        basis = self.space.eval_disp_basis(cells, pts)
        return np.einsum("t...a,ta->t...", basis, self.local_coefficients(cells))

    def broken_grad(self, cells, pts):
        """Elementwise gradient at points (nc, nq, 2).  Zero for l = 0.

        The local basis {1, X, Y} has a constant gradient per cell.
        """
        space = self.space
        if space.rt_index == 0:
            return np.zeros(pts.shape)
        h = space.mesh.h_cell[cells]
        coef = self.local_coefficients(cells)
        g = coef[:, 1:3] / h[:, None]
        return np.broadcast_to(g[:, None, :], pts.shape).copy()


def evaluate(field, cell, point):
    """Evaluate a field at one local point of one cell."""
    space = field.space
    if not 0 <= cell < space.mesh.num_cells:
        raise CellIndexOutOfRangeError("cell {} out of range".format(cell))
    pts = np.asarray(point, dtype=float).reshape(1, 1, 2)
    out = field.eval(np.array([cell]), pts)
    return np.squeeze(out, axis=(0, 1))


def l2_project_scalar(space, fn):
    """L2 projection of a scalar function onto the displacement space.

    The returned field satisfies (phi - P_h phi, w_h) = 0 for all basis
    w_h up to quadrature accuracy.
    """
    w = space.quad_weights
    basis = space.disp_at_quad  # (T, nq, nd)
    vals = _eval_scalar(fn, space.quad_points)
    M = np.einsum("tq,tqa,tqb->tab", w, basis, basis)
    rhs = np.einsum("tq,tq,tqa->ta", w, vals, basis)
    coef = np.linalg.solve(M, rhs[..., None])[..., 0]
    out = np.zeros(space.n_disp)
    out[space.cell_disp_dofs] = coef
    return space.disp_field(out)


def fortin_interpolate(space, fn):
    """Commuting interpolant onto RT_l: edge moments plus cell moments.

    Satisfies div(Pi_h v) = P_h(div v) up to quadrature accuracy.
    """
    mesh, l = space.mesh, space.rt_index
    out = np.zeros(space.n_stress)
    tq, tw = quadrature.segment_rule(space.edge_degree)
    pts, w = quadrature.map_to_edges(mesh, tq, tw)
    vals = _eval_vector(fn, pts)  # (E, nq, 2)
    vn = np.einsum("eqc,ec->eq", vals, mesh.edge_normals())
    for i in range(l + 1):
        q = np.ones_like(tq) if i == 0 else 2.0 * tq - 1.0
        moments = np.einsum("eq,eq->e", w * q[None, :], vn)
        out[(l + 1) * np.arange(mesh.num_edges) + i] = moments
    if l == 1:
        vals = _eval_vector(fn, space.quad_points)
        cellint = np.einsum("tq,tqc->tc", space.quad_weights, vals)
        base = 2 * mesh.num_edges
        out[base + 2 * np.arange(mesh.num_cells)] = cellint[:, 0]
        out[base + 2 * np.arange(mesh.num_cells) + 1] = cellint[:, 1]
    return space.stress_field(out)


def _eval_scalar(fn, pts):
    vals = fn(pts[..., 0], pts[..., 1])
    return np.broadcast_to(np.asarray(vals, dtype=float), pts.shape[:-1])


def _eval_vector(fn, pts):
    """Vector functions take (x, y) arrays and return shape x.shape + (2,)."""
    vals = np.asarray(fn(pts[..., 0], pts[..., 1]), dtype=float)
    return np.broadcast_to(vals, pts.shape)
