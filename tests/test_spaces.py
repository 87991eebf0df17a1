import numpy as np
import pytest

from mixedwave import spaces as sp
from mixedwave.assembly import assemble_system
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
    # u = x + 2 y on each cell: local coefficients from projection; P0 has no slope
    for l, slope in ((0, (0.0, 0.0)), (1, (1.0, 2.0))):
        space = sp.MixedSpace(unit_square_mesh(2), l)
        p = sp.l2_project_scalar(space, lambda x, y: x + 2 * y)
        ops = assemble_system(space).estimator_ops
        sqrt_w = np.sqrt(space.quad_weights)
        # the U columns of the gradient defect are the broken gradient
        g = ops.defect @ np.r_[np.zeros(space.n_stress), p]
        g = g.reshape(space.quad_points.shape)
        for d in range(2):
            assert np.abs(g[..., d] - slope[d] * sqrt_w).max() < 1e-12


def _central_differences(evaluate, cells, pts, e=1e-4):
    """(d/dx, d/dy) of evaluate(cells, pts) on the last axis; exact up to
    rounding for the quadratic bases."""
    steps = e * np.eye(2)
    return np.stack(
        [(evaluate(cells, pts + d) - evaluate(cells, pts - d)) / (2 * e) for d in steps], -1
    )


@pytest.mark.parametrize("l", [0, 1])
def test_div_basis_matches_central_differences(l):
    space = sp.MixedSpace(_jittered_mesh(3, 5), l)
    cells, pts = np.arange(space.mesh.num_cells), space.quad_points
    div = space.eval_div_basis(cells, pts)
    fd = _central_differences(space.eval_stress_basis, cells, pts)  # (..., k, c, d)
    np.testing.assert_allclose(
        div, fd[..., 0, 0] + fd[..., 1, 1], rtol=0, atol=1e-8 * np.abs(div).max()
    )


@pytest.mark.parametrize("l", [0, 1])
def test_disp_grad_basis_matches_central_differences(l):
    space = sp.MixedSpace(_jittered_mesh(3, 5), l)
    cells, pts = np.arange(space.mesh.num_cells), space.quad_points
    grad = space.eval_disp_grad_basis(cells, pts)
    assert grad.shape == pts.shape[:2] + (space.n_loc_disp, 2)
    fd = _central_differences(space.eval_disp_basis, cells, pts)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-7)
    assert (np.abs(grad).max() > 0.0) == (l == 1)  # P0 gradients are exactly zero


def _collapsed_rule(mesh, m=6):
    """Collapsed m x m Gauss-Legendre rule on every cell, exact to degree 2 m - 2:
    the reference point (u (1 - v), v) has weight w_u w_v (1 - v)."""
    g, wg = np.polynomial.legendre.leggauss(m)
    g, wg = 0.5 * (g + 1.0), 0.5 * wg
    u, v = np.repeat(g, m), np.tile(g, m)
    w = np.repeat(wg, m) * np.tile(wg, m) * (1.0 - v)
    p = mesh.vertices[mesh.cells]  # (T, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = p[:, None, 0] + (u * (1.0 - v))[:, None] * e1[:, None] + v[:, None] * e2[:, None]
    return pts, det[:, None] * w


@pytest.mark.parametrize("l", [0, 1])
def test_nodal_basis_is_dual_to_the_degrees_of_freedom(l):
    # every degree of freedom of a cell, taken with rules of the test's
    # own, is 1 on the basis function of its index and 0 on the others
    mesh = _jittered_mesh(3, 7)
    space = sp.MixedSpace(mesh, l)
    cells = np.arange(mesh.num_cells)
    g, wg = np.polynomial.legendre.leggauss(12)
    xi, wxi = 0.5 * (g + 1.0), 0.5 * wg
    rows = []
    for j in range(3):  # local edge slot, in the canonical edge direction
        a, b = (mesh.vertices[mesh.edges[mesh.cell_edges[:, j], i]] for i in (0, 1))
        length = np.linalg.norm(b - a, axis=1)
        normal = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1) / length[:, None]
        pts = a[:, None] + xi[:, None] * (b - a)[:, None]
        vn = np.einsum("tqkc,tc->tqk", space.eval_stress_basis(cells, pts), normal)
        for test in (np.ones_like(xi), 2.0 * xi - 1.0)[: l + 1]:
            rows.append(length[:, None] * np.einsum("q,tqk->tk", wxi * test, vn))
    if l == 1:
        pts, w = _collapsed_rule(mesh)
        rows.extend(np.einsum("tq,tqkc->ctk", w, space.eval_stress_basis(cells, pts)))
    dofs = np.stack(rows, axis=1)  # (T, functional, basis function)
    assert dofs.shape == (mesh.num_cells, space.n_loc_stress, space.n_loc_stress)
    eye = np.broadcast_to(np.eye(space.n_loc_stress), dofs.shape)
    np.testing.assert_allclose(dofs, eye, rtol=0, atol=1e-12)


@pytest.mark.parametrize("l", [0, 1])
def test_dof_maps_follow_the_layout(l):
    # a cell lists l + 1 dofs on each of its edges, by local edge, then its
    # l (l + 1) own dofs, numbered after all edge dofs
    mesh = _jittered_mesh(3, 7)
    space = sp.MixedSpace(mesh, l)
    T, E, ne = mesh.num_cells, mesh.num_edges, space.n_loc_edge
    assert len(space.stress_dof_entity) == space.n_stress
    entity = space.stress_dof_entity[space.cell_stress_dofs]
    np.testing.assert_array_equal(entity[:, :ne], np.repeat(mesh.cell_edges, l + 1, axis=1))
    assert entity.shape == (T, ne + l * (l + 1))
    assert np.all(entity[:, ne:] == E + np.arange(T)[:, None])
    own = np.sort(space.cell_stress_dofs[:, ne:], axis=None)
    np.testing.assert_array_equal(own, np.arange((l + 1) * E, space.n_stress))
    np.testing.assert_array_equal(space.cell_disp_dofs.ravel(), np.arange(space.n_disp))


@pytest.mark.parametrize("l", [0, 1])
def test_stress_grad_basis_matches_central_differences(l):
    # an empty cell set keeps its shape
    space = sp.MixedSpace(_jittered_mesh(3, 5), l)
    cells, pts = np.arange(space.mesh.num_cells), space.quad_points
    grad = space.eval_stress_grad_basis(cells, pts)
    assert grad.shape == pts.shape[:2] + (space.n_loc_stress, 2, 2)
    fd = _central_differences(space.eval_stress_basis, cells, pts)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8 * np.abs(grad).max())
    empty = space.eval_stress_grad_basis(cells[:0], pts[:0])
    assert empty.shape == (0,) + grad.shape[1:]


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


@pytest.mark.parametrize("l", [0, 1])
def test_local_quad_values_are_the_local_bases(l):
    space = sp.MixedSpace(unit_square_mesh(3), l)
    cells, pts = np.arange(space.mesh.num_cells), space.quad_points
    phi, div, psi = space.local_quad_values()
    np.testing.assert_array_equal(phi, np.swapaxes(space.eval_stress_basis(cells, pts), -1, -2))
    np.testing.assert_array_equal(div, space.eval_div_basis(cells, pts))
    np.testing.assert_array_equal(psi, space.eval_disp_basis(cells, pts))
    # each quadrature map is _cell_rows of its local basis, entry for entry
    sd, dd = space.cell_stress_dofs, space.cell_disp_dofs
    for op, want in (
        (space.stress_quad_map, sp._cell_rows(phi, sd, space.n_stress)),
        (space.div_quad_map, sp._cell_rows(div, sd, space.n_stress)),
        (space.disp_quad_map, sp._cell_rows(psi, dd, space.n_disp)),
    ):
        assert op.shape == want.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(op, part), getattr(want, part))


def test_quadrature_maps_are_built_on_first_use():
    space = sp.MixedSpace(unit_square_mesh(3), 1)
    names = ("stress_quad_map", "div_quad_map", "disp_quad_map")
    assert not set(names) & set(vars(space))
    assemble_system(space)
    assert not set(names) & set(vars(space))
    space.div_values(np.zeros(space.n_stress))
    assert [name for name in names if name in vars(space)] == ["div_quad_map"]
    assert space.div_quad_map is space.div_quad_map
