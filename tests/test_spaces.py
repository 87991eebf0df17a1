import numpy as np
import pytest

from mixedwave import spaces as sp
from mixedwave.assembly import Coefficient, estimator_operators
from mixedwave.mesh import build_mesh, unit_square_mesh


def _poly_vector(rng, degree=3):
    cx = rng.standard_normal((degree + 1, degree + 1))
    cy = rng.standard_normal((degree + 1, degree + 1))

    def fn(x, y):
        vx = sum(
            cx[i, j] * x ** i * y ** j
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        )
        vy = sum(
            cy[i, j] * x ** i * y ** j
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        )
        return np.stack([vx, vy], axis=-1)

    def div(x, y):
        dx = sum(
            i * cx[i, j] * x ** (i - 1) * y ** j
            for i in range(1, degree + 1)
            for j in range(degree + 1 - i)
        )
        dy = sum(
            j * cy[i, j] * x ** i * y ** (j - 1)
            for i in range(degree + 1)
            for j in range(1, degree + 1 - i)
        )
        return dx + dy

    return fn, div


def _stress_at(space, coeffs, cells, pts):
    """Stress row `coeffs` at points (nc, nq, 2) of `cells`, from the basis."""
    basis = space.eval_stress_basis(cells, pts)
    return np.einsum("tqkc,tk->tqc", basis, coeffs[space.cell_stress_dofs[cells]])


def test_unsupported_index():
    with pytest.raises(sp.UnsupportedIndexError):
        sp.MixedSpace(unit_square_mesh(2), 2)


def test_dof_counts():
    mesh = unit_square_mesh(2)
    s0 = sp.MixedSpace(mesh, 0)
    assert s0.n_stress == mesh.num_edges
    assert s0.n_disp == mesh.num_cells
    s1 = sp.MixedSpace(mesh, 1)
    assert s1.n_stress == 2 * mesh.num_edges + 2 * mesh.num_cells
    assert s1.n_disp == 3 * mesh.num_cells


def test_projection_reproduces_polynomials():
    for l in (0, 1):
        space = sp.MixedSpace(unit_square_mesh(3), l)
        fn = (lambda x, y: 0 * x + 2.0) if l == 0 else (lambda x, y: 1.0 + 2 * x - y)
        p = sp.l2_project_scalar(space, fn)
        pts = space.quad_points
        assert np.abs(space.disp_values(p) - fn(pts[..., 0], pts[..., 1])).max() < 1e-12


def test_rt0_edge_midpoint_normal_value():
    # the basis function of an edge has normal trace 1/|E| on that edge
    mesh = unit_square_mesh(4)
    space = sp.MixedSpace(mesh, 0)
    e = int(np.flatnonzero(~mesh.boundary_edge)[0])
    c = mesh.edge_cells[e, 0]
    mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
    k = list(mesh.cell_edges[c]).index(e)
    basis = space.eval_stress_basis(np.array([c]), mid.reshape(1, 1, 2))
    vn = basis[0, 0, k] @ mesh.edge_normals()[e]
    assert abs(vn - 1.0 / mesh.h_edge[e]) < 1e-12


def test_normal_continuity():
    rng = np.random.default_rng(3)
    for l in (0, 1):
        mesh = unit_square_mesh(3)
        space = sp.MixedSpace(mesh, l)
        coeffs = rng.standard_normal(space.n_stress)
        interior = np.flatnonzero(~mesh.boundary_edge)
        tq = np.linspace(0.1, 0.9, 5)
        a = mesh.vertices[mesh.edges[interior, 0]]
        b = mesh.vertices[mesh.edges[interior, 1]]
        pts = a[:, None, :] + tq[None, :, None] * (b - a)[:, None, :]
        left = _stress_at(space, coeffs, mesh.edge_cells[interior, 0], pts)
        right = _stress_at(space, coeffs, mesh.edge_cells[interior, 1], pts)
        n = mesh.edge_normals()[interior]
        jump = np.einsum("eqc,ec->eq", left - right, n)
        assert np.abs(jump).max() < 1e-11


def test_commuting_diagram_single_field():
    rng = np.random.default_rng(5)
    fn, div = _poly_vector(rng)
    for l in (0, 1):
        space = sp.MixedSpace(unit_square_mesh(4), l)
        pi_v = sp.fortin_interpolate(space, fn)
        p_div = sp.l2_project_scalar(space, div)
        d = space.div_values(pi_v) - space.disp_values(p_div)
        err = np.sqrt(np.einsum("tq,tq->", space.quad_weights, d ** 2))
        assert err < 1e-11


def test_broken_grad():
    # u = x on each cell: local coefficients from projection; P0 has no slope
    for l, slope in ((0, 0.0), (1, 1.0)):
        space = sp.MixedSpace(unit_square_mesh(2), l)
        p = sp.l2_project_scalar(space, lambda x, y: x)
        ops = estimator_operators(space, Coefficient())
        sqrt_w = np.sqrt(space.quad_weights)
        g = (ops.grad_u @ p).reshape(space.quad_points.shape)
        assert np.abs(g[..., 0] - slope * sqrt_w).max() < 1e-12
        assert np.abs(g[..., 1]).max() < 1e-12


def _jittered_mesh(n, seed):
    base = unit_square_mesh(n)
    v = np.array(base.vertices)
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    v[interior] += rng.uniform(-0.1, 0.1, (int(interior.sum()), 2)) / n
    return build_mesh(v, base.cells)


@pytest.mark.parametrize("l", [0, 1])
def test_quadrature_maps_match_basis_evaluation(l):
    space = sp.MixedSpace(_jittered_mesh(5, 3), l)
    rng = np.random.default_rng(4)
    sig = rng.standard_normal(space.n_stress)
    u = rng.standard_normal(space.n_disp)
    cells = np.arange(space.mesh.num_cells)
    pts = space.quad_points
    div = np.einsum(
        "tqk,tk->tq", space.eval_div_basis(cells, pts), sig[space.cell_stress_dofs]
    )
    disp = np.einsum(
        "tqa,ta->tq", space.eval_disp_basis(cells, pts), u[space.cell_disp_dofs]
    )
    for got, ref in (
        (space.stress_values(sig), _stress_at(space, sig, cells, pts)),
        (space.div_values(sig), div),
        (space.disp_values(u), disp),
    ):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # a (2, 3, n) stack of rows maps row by row
    for values, row in (
        (space.stress_values, sig),
        (space.div_values, sig),
        (space.disp_values, u),
    ):
        stack = np.arange(1.0, 7.0).reshape(2, 3, 1) * row
        got = values(stack)
        assert got.shape == (2, 3) + values(row).shape
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], values(stack[i, j]))
