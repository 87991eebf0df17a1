import numpy as np
import pytest

from mixedwave import spaces as sp
from mixedwave.mesh import build_mesh, unit_square_mesh, two_triangle_square


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


def test_unsupported_index():
    with pytest.raises(sp.UnsupportedIndexError):
        sp.MixedSpace(unit_square_mesh(2), 2)


def test_quadrature_too_low():
    with pytest.raises(sp.QuadratureOrderTooLowError):
        sp.MixedSpace(unit_square_mesh(2), 1, cell_degree=1)


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
        assert np.abs(p.at_quad() - fn(pts[..., 0], pts[..., 1])).max() < 1e-12


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
        field = space.stress_field(rng.standard_normal(space.n_stress))
        interior = np.flatnonzero(~mesh.boundary_edge)
        tq = np.linspace(0.1, 0.9, 5)
        a = mesh.vertices[mesh.edges[interior, 0]]
        b = mesh.vertices[mesh.edges[interior, 1]]
        pts = a[:, None, :] + tq[None, :, None] * (b - a)[:, None, :]
        left = field.eval(mesh.edge_cells[interior, 0], pts)
        right = field.eval(mesh.edge_cells[interior, 1], pts)
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
        d = pi_v.div_at_quad() - p_div.at_quad()
        err = np.sqrt(np.einsum("tq,tq->", space.quad_weights, d ** 2))
        assert err < 1e-11


def test_evaluate_out_of_range():
    space = sp.MixedSpace(two_triangle_square(), 0)
    field = space.zero_stress()
    with pytest.raises(sp.CellIndexOutOfRangeError):
        sp.evaluate(field, 99, [0.5, 0.5])


def test_broken_grad():
    space = sp.MixedSpace(unit_square_mesh(2), 1)
    # u = x on each cell: local coefficients from projection
    p = sp.l2_project_scalar(space, lambda x, y: x)
    cells = np.arange(space.mesh.num_cells)
    g = p.broken_grad(cells, space.quad_points)
    assert np.abs(g[..., 0] - 1.0).max() < 1e-12
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
    sig = space.stress_field(rng.standard_normal(space.n_stress))
    u = space.disp_field(rng.standard_normal(space.n_disp))
    cells = np.arange(space.mesh.num_cells)
    pts = space.quad_points
    div = np.einsum(
        "tqk,tk->tq", space.eval_div_basis(cells, pts), sig.local_coefficients()
    )
    for got, ref in (
        (sig.at_quad(), sig.eval(cells, pts)),
        (sig.div_at_quad(), div),
        (u.at_quad(), u.eval(cells, pts)),
    ):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
