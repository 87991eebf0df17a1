"""Gauss quadrature rules on the reference triangle and on segments.

Triangle rules are built by the Duffy (collapsed square) construction:
Gauss-Legendre points in the first direction tensored with Gauss-Jacobi
(weight 1-y) points in the second.  An m x m rule integrates bivariate
polynomials of total degree <= 2m - 2 exactly, so ``triangle_rule(d)``
picks m = ceil((d + 1) / 2) + 1 conservative points.  Both 1D rules come
from numpy: ``leggauss`` and, for Gauss-Jacobi, the Golub-Welsch
eigenproblem of the Jacobi matrix.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss


def _gauss_jacobi_10(m):
    """m-point Gauss rule on [-1, 1] for the weight 1 - x (Jacobi alpha=1, beta=0).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the monic recurrence, whose diagonal is
    -1 / ((2k + 1)(2k + 3)) and off-diagonal sqrt(k (k + 1)) / (2k + 1);
    the weights are 2 (the integral of 1 - x) times the squared first
    components of the normalized eigenvectors.
    """
    k = np.arange(m)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2.0 * k[1:] + 1.0)
    J = np.diag(-1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    J += np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(J)
    return x, 2.0 * v[0] ** 2


def segment_rule(degree):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of `degree`.

    Returns (points, weights) with weights summing to 1.
    """
    m = max(1, math.ceil((degree + 1) / 2))
    x, w = leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_rule(degree):
    """Quadrature on the reference triangle (0,0), (1,0), (0,1).

    Returns (points, weights): points of shape (nq, 2), weights summing
    to the reference area 1/2.  Exact for total degree <= `degree`.
    """
    m = max(1, math.ceil((degree + 1) / 2))
    xu, wu = leggauss(m)
    xy, wy = _gauss_jacobi_10(m)
    # map both to [0, 1]; the Jacobi weight (1-x)^1 absorbs the Duffy factor
    u = 0.5 * (xu + 1.0)
    y = 0.5 * (xy + 1.0)
    wu = 0.5 * wu
    wy = 0.25 * wy  # 1/2 for the interval map, 1/2 for the weight scaling
    U, Y = np.meshgrid(u, y, indexing="ij")
    WU, WY = np.meshgrid(wu, wy, indexing="ij")
    x = (U * (1.0 - Y)).ravel()
    yy = Y.ravel()
    w = (WU * WY).ravel()
    return np.column_stack([x, yy]), w


def map_to_cells(mesh, ref_points, ref_weights):
    """Push a reference-triangle rule onto every cell of `mesh`.

    Returns (points, weights) of shapes (T, nq, 2) and (T, nq); the
    weights include the cell Jacobians so that sums approximate cell
    integrals.
    """
    v0 = mesh.vertices[mesh.cells[:, 0]]
    v1 = mesh.vertices[mesh.cells[:, 1]]
    v2 = mesh.vertices[mesh.cells[:, 2]]
    lam = ref_points  # reference coords (x, y)
    pts = (
        v0[:, None, :]
        + lam[None, :, 0, None] * (v1 - v0)[:, None, :]
        + lam[None, :, 1, None] * (v2 - v0)[:, None, :]
    )
    w = 2.0 * mesh.area[:, None] * ref_weights[None, :]
    return pts, w


def map_to_edges(mesh, ref_points, ref_weights, edge_indices=None):
    """Push a segment rule onto (a subset of) mesh edges.

    Edges are traversed in their canonical direction.  Returns
    (points, weights) of shapes (E, nq, 2) and (E, nq); weights include
    the edge lengths.
    """
    if edge_indices is None:
        edge_indices = np.arange(len(mesh.edges))
    e = mesh.edges[edge_indices]
    a = mesh.vertices[e[:, 0]]
    b = mesh.vertices[e[:, 1]]
    pts = a[:, None, :] + ref_points[None, :, None] * (b - a)[:, None, :]
    w = mesh.h_edge[edge_indices, None] * ref_weights[None, :]
    return pts, w
