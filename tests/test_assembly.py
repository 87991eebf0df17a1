import numpy as np
import pytest
import scipy.sparse as sp
import sympy as sym

from mixedwave import assembly as asm
from mixedwave import spaces
from mixedwave.estimators import spatial_estimate
from mixedwave.mesh import build_mesh, two_triangle_square, unit_square_mesh
from mixedwave.spaces import MixedSpace, fortin_interpolate, l2_project_scalar
from mixedwave.verification import PROBLEMS

_x, _y = asm._X, asm._Y


def test_mass_matrix_total_is_domain_area():
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(3), l)
        system = asm.assemble_system(space)
        one = l2_project_scalar(space, lambda x, y: np.ones_like(x))
        assert abs(one @ (system.M_u @ one) - 1.0) < 1e-12


def test_load_vector_of_constant():
    space = MixedSpace(unit_square_mesh(3), 0)
    load = asm.load_of_values(space, np.ones(space.quad_weights.shape))
    assert np.allclose(load, space.mesh.area)


def test_divergence_matrix_full_rank():
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(2), l)
        system = asm.assemble_system(space)
        assert np.linalg.matrix_rank(system.B.toarray()) == space.n_disp


def test_spd_check_rejects_indefinite_coefficient():
    space = MixedSpace(two_triangle_square(), 0)
    # constant, and variable with A_22 = x - 2 < 0 on the unit square
    for A in (sym.Matrix([[1, 0], [0, -1]]), sym.Matrix([[1, 0], [0, _x - 2]])):
        with pytest.raises(asm.CoefficientNotSPDError):
            asm.assemble_system(space, asm.Coefficient(A))


def test_constant_coefficient_must_be_symmetric():
    with pytest.raises(asm.AssemblyError):
        asm.Coefficient([[1.0, 2.0], [0.0, 1.0]])


def test_weighted_mass_matrix_value():
    # alpha = A^-1 = I/2 for A = 2I: sigma mass of a fixed field halves
    space = MixedSpace(unit_square_mesh(2), 0)
    s1 = asm.assemble_system(space)
    s2 = asm.assemble_system(space, np.diag([2.0, 2.0]))
    v = np.random.default_rng(0).standard_normal(space.n_stress)
    assert abs(v @ (s2.M_sigma @ v) - 0.5 * v @ (s1.M_sigma @ v)) < 1e-12


# symmetric, x-y coupled and uniformly positive definite on the unit square
_FULL = sym.Matrix([[2 + _x, _y / 2], [_y / 2, 1 + _y]])


def _values(A, pts):
    """Values of a sympy Matrix in x, y at points (..., 2), entry by entry."""
    x, y = pts[..., 0], pts[..., 1]
    rows = [
        [np.broadcast_to(sym.lambdify((_x, _y), a)(x, y), x.shape) for a in row]
        for row in A.tolist()
    ]
    return np.moveaxis(np.array(rows, dtype=float), (0, 1), (-2, -1))


def _jittered_mesh(n):
    """n x n grid with interior vertices moved by up to h/10 per axis."""
    base = unit_square_mesh(n)
    v = np.array(base.vertices)
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[interior] += np.random.default_rng(11).uniform(-0.1 / n, 0.1 / n, (interior.sum(), 2))
    return build_mesh(v, base.cells)


@pytest.mark.parametrize("l", [0, 1])
def test_assembly_matches_per_cell_einsums(l):
    space = MixedSpace(_jittered_mesh(5), l)
    coeff = asm.Coefficient(_FULL)
    system = asm.assemble_system(space, coeff)

    # reference: per-cell element matrices from basis samples, scattered
    pts, w = space.quad_points, space.quad_weights
    cells = np.arange(space.mesh.num_cells)
    sb = space.eval_stress_basis(cells, pts)  # (T, nq, nl, 2)
    db = space.eval_div_basis(cells, pts)  # (T, nq, nl)
    ub = space.eval_disp_basis(cells, pts)  # (T, nq, nd)
    alpha = np.linalg.inv(_values(_FULL, pts))
    asb = np.einsum("tqcd,tqkd->tqkc", alpha, sb)
    sd, dd = space.cell_stress_dofs, space.cell_disp_dofs
    blocks = [
        (system.M_sigma, np.einsum("tq,tqic,tqjc->tij", w, asb, sb), sd, sd),
        (system.B, np.einsum("tq,tqa,tqj->taj", w, ub, db), dd, sd),
        (system.M_u, np.einsum("tq,tqa,tqb->tab", w, ub, ub), dd, dd),
    ]
    for matrix, local, rows, cols in blocks:
        ref = np.zeros(matrix.shape)
        np.add.at(ref, (rows[:, :, None], cols[:, None, :]), local)
        scale = np.abs(ref).max()
        assert np.abs(matrix.toarray() - ref).max() <= 1e-13 * scale
    # the off-diagonal entries of A move M_sigma
    diagonal = asm.Coefficient(sym.diag(_FULL[0, 0], _FULL[1, 1]))
    gap = asm.assemble_system(space, diagonal).M_sigma - system.M_sigma
    assert abs(gap).max() > 1e-3


def _sigma_samples(op, coeffs):
    """Squares of the weighted samples an estimator operator takes of a stress row."""
    return (op @ coeffs) ** 2


def test_jump_zero_for_smooth_gradient_of_linear():
    # sigma = constant vector has continuous tangential component
    space = MixedSpace(unit_square_mesh(3), 0)
    field = fortin_interpolate(space, lambda x, y: np.stack(
        [np.full(np.shape(x), 2.0), np.full(np.shape(x), -1.0)], axis=-1
    ))
    ops = asm.assemble_system(space).estimator_ops
    assert np.abs(_sigma_samples(ops.jump, field)).max() < 1e-24


def test_jump_hand_oracle_single_edge():
    # two-cell square, RT0 field with one interior edge; compare against
    # an independent fine-sampled quadrature of the jump integrand
    mesh = two_triangle_square()
    space = MixedSpace(mesh, 0)
    rng = np.random.default_rng(2)
    field = rng.standard_normal(space.n_stress)
    e = int(np.flatnonzero(~mesh.boundary_edge)[0])
    a, b = mesh.vertices[mesh.edges[e]]
    ts = np.polynomial.legendre.leggauss(12)
    pts = a + 0.5 * (ts[0][:, None] + 1.0) * (b - a)
    w = 0.5 * ts[1] * mesh.h_edge[e]
    tangent = mesh.edge_tangents()[e]
    sides = mesh.edge_cells[e]
    left, right = np.einsum(
        "tqkc,tk->tqc",
        space.eval_stress_basis(sides, np.stack([pts, pts])),
        field[space.cell_stress_dofs[sides]],
    )
    jump = (left - right) @ tangent
    hand = (w * jump ** 2).sum()
    ops = asm.assemble_system(space).estimator_ops
    samples = _sigma_samples(ops.jump, field)
    assert abs(samples.sum() - hand) < 1e-12 * max(1.0, hand)
    # each of the two cells carries half of h_E times the edge integral
    halves = ops.cell_jump @ samples
    np.testing.assert_allclose(halves, 0.5 * mesh.h_edge[e] * hand, rtol=1e-12)


def test_curl_zero_for_rt0_identity_coefficient():
    space = MixedSpace(unit_square_mesh(3), 0)
    rng = np.random.default_rng(4)
    field = rng.standard_normal(space.n_stress)
    ops = asm.assemble_system(space).estimator_ops
    assert np.abs(_sigma_samples(ops.curl, field)).max() < 1e-20


def _ones(x, y):
    return np.stack([np.ones(np.shape(x)), np.ones(np.shape(x))], axis=-1)


def _y_then_zero(x, y):
    return np.stack([y, np.zeros(np.shape(x))], axis=-1)


def test_curl_variable_coefficient_matches_analytic():
    # A = diag(1 + x/2, 1 + y/2), sigma constant: curl(alpha sigma) has the
    # closed form d/dx(sigma_2 / (1 + y/2)) - d/dy(sigma_1 / (1 + x/2)) = 0
    space = MixedSpace(unit_square_mesh(3), 0)
    A = asm.Coefficient(sym.diag(1 + _x / 2, 1 + _y / 2))
    ops = asm.assemble_system(space, A).estimator_ops
    assert np.abs(_sigma_samples(ops.curl, fortin_interpolate(space, _ones))).max() < 1e-12


@pytest.mark.parametrize("l, sigma, curl", [
    # the derivative of alpha is all of curl(alpha sigma)
    (0, _ones, lambda x, y: 0.5 / (1 + y / 2) ** 2 - 0.5 / (1 + x / 2) ** 2),
    (1, _ones, lambda x, y: 0.5 / (1 + y / 2) ** 2 - 0.5 / (1 + x / 2) ** 2),
    # -d/dy (y / (1 + y/2)): alpha d(sigma) and d(alpha) sigma both count
    (1, _y_then_zero, lambda x, y: -1.0 / (1 + y / 2) ** 2),
])
def test_curl_derivative_of_alpha_matches_closed_form(l, sigma, curl):
    # A = diag(1 + y/2, 1 + x/2); sigma is in RT_l, so its interpolant is exact
    space = MixedSpace(unit_square_mesh(3), l)
    A = asm.Coefficient(sym.diag(1 + _y / 2, 1 + _x / 2))
    ops = asm.assemble_system(space, A).estimator_ops
    got = _sigma_samples(ops.curl, fortin_interpolate(space, sigma))
    got = got.reshape(space.mesh.num_cells, -1).sum(axis=1)
    x, y = space.quad_points[..., 0], space.quad_points[..., 1]
    want = (space.quad_weights * curl(x, y) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("problem", ["standing-wave", "variable-coefficient"])
def test_curl_stores_no_rt0_entry_and_every_rt1_entry(problem):
    # A = I and A = diag(1 + x/2, 1 + y/2): every RT0 curl sample is an
    # exact zero, and none is stored; RT1 keeps each local entry
    A = PROBLEMS[problem]().A
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(8), l)
        curl = asm.assemble_system(space, A).estimator_ops.curl
        assert curl.shape == (space.quad_weights.size, space.n_stress)
        assert curl.nnz == (0 if l == 0 else curl.shape[0] * space.n_loc_stress)


def test_jump_zero_on_one_cell_mesh():
    # a single triangle has no interior edge, so its jump term is 0
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    for l in (0, 1):
        space = MixedSpace(mesh, l)
        sigma = np.arange(space.n_stress, dtype=float)
        system = asm.assemble_system(space)
        ops = system.estimator_ops
        assert ops.jump.shape == (0, space.n_stress)
        se = spatial_estimate(
            system, sigma, np.zeros(space.quad_weights.shape), np.zeros(space.n_disp)
        )
        assert np.array_equal(se.jump, np.zeros(1))


def test_dalpha_of_full_coefficient_matches_symbolic_derivative():
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (4, 5, 2))
    c = asm.Coefficient(_FULL)
    got = c.dalpha_at(pts, c.alpha_at(pts))
    for d, s in enumerate((_x, _y)):
        want = _values(sym.diff(_FULL.inv(), s), pts)
        assert np.abs(got[d] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("sigma", [(1, 1), (_y, 0)])
def test_curl_of_full_coefficient_matches_symbolic_curl(sigma):
    # sigma is in RT1, so its interpolant is exact; the off-diagonal
    # entries of alpha and of its derivatives all enter the curl
    g = _FULL.inv() * sym.Matrix(sigma)
    curl = sym.diff(g[1], _x) - sym.diff(g[0], _y)
    space = MixedSpace(unit_square_mesh(3), 1)
    ops = asm.assemble_system(space, asm.Coefficient(_FULL)).estimator_ops
    row = sym.Matrix([sigma]).T
    field = fortin_interpolate(
        space, lambda x, y: _values(row, np.stack([x, y], -1))[..., 0]
    )
    got = _sigma_samples(ops.curl, field).reshape(space.mesh.num_cells, -1).sum(axis=1)
    want = _values(sym.Matrix([curl]), space.quad_points)[..., 0, 0]
    want = (space.quad_weights * want ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("plain", [False, True], ids=["package-symbols", "plain-symbols"])
def test_coefficient_input_is_checked(plain):
    x, y, t = sym.symbols("x y t") if plain else (_x, _y, asm._T)
    bad = [
        (lambda x, y: np.eye(2), "None, a constant 2x2 array or a sympy Matrix in x and y"),
        (sym.Matrix([[1 + x, 0, 0], [0, 1, 0]]), "symmetric 2x2"),
        (sym.diag(1 + x, 1 + y, 1), "symmetric 2x2"),
        (sym.Matrix([[1 + x, y / 2], [0, 1 + y]]), "symmetric"),
        (sym.Matrix([[1 + t, 0], [0, 1 + y]]), r"x and y only, not on \{t\}"),
    ]
    for entries, message in bad:
        with pytest.raises(asm.AssemblyError, match=message):
            asm.Coefficient(entries)
    # x and y are matched by name: the same values as the package's symbols
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (3, 4, 2))
    got = asm.Coefficient(sym.Matrix([[2 + x, y / 2], [y / 2, 1 + y]]))
    want = asm.Coefficient(_FULL)
    np.testing.assert_array_equal(got.alpha_at(pts), want.alpha_at(pts))
    np.testing.assert_array_equal(
        got.dalpha_at(pts, got.alpha_at(pts)), want.dalpha_at(pts, want.alpha_at(pts))
    )


def _coo_cell_rows(loc, dofs, n_cols):
    """_cell_rows through COO triples and sum_duplicates, as a reference."""
    n_rows = loc[..., 0].size
    cols = np.broadcast_to(
        dofs.reshape((len(dofs),) + (1,) * (loc.ndim - 2) + dofs.shape[1:]), loc.shape
    )
    rows = np.repeat(np.arange(n_rows), loc.shape[-1])
    return sp.csr_matrix((loc.ravel(), (rows, cols.ravel())), shape=(n_rows, n_cols))


def test_cell_rows_match_their_coo_construction(monkeypatch):
    mesh = _jittered_mesh(5)
    coeff = asm.Coefficient(_FULL)
    space = MixedSpace(mesh, 1)
    ops = asm.assemble_system(space, coeff).estimator_ops
    names = ("stress_quad_map", "div_quad_map", "disp_quad_map")
    maps = [getattr(space, name) for name in names]  # built before the patch
    monkeypatch.setattr(spaces, "_cell_rows", _coo_cell_rows)
    monkeypatch.setattr(asm, "_cell_rows", _coo_cell_rows)
    ref_space = MixedSpace(mesh, 1)
    ref_ops = asm.assemble_system(ref_space, coeff).estimator_ops
    pairs = [
        (got, getattr(ref_space, name)) for got, name in zip(maps, names)
    ] + [(getattr(ops, name), getattr(ref_ops, name)) for name in ("defect", "jump", "curl")]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())
