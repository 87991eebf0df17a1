import numpy as np
import pytest

from mixedwave import assembly as asm
from mixedwave.estimators import spatial_estimate
from mixedwave.mesh import build_mesh, two_triangle_square, unit_square_mesh
from mixedwave.spaces import MixedSpace, fortin_interpolate, l2_project_scalar


def test_mass_matrix_total_is_domain_area():
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(3), l)
        system = asm.assemble_system(space)
        one = l2_project_scalar(space, lambda x, y: np.ones_like(x))
        assert abs(one @ (system.M_u @ one) - 1.0) < 1e-12


def test_load_vector_of_constant():
    space = MixedSpace(unit_square_mesh(3), 0)
    load = asm.assemble_load(space, lambda x, y: np.ones_like(x))
    assert np.allclose(load, space.mesh.area)


def test_divergence_matrix_full_rank():
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(2), l)
        system = asm.assemble_system(space)
        assert np.linalg.matrix_rank(system.B.toarray()) == space.n_disp


def test_spd_check_rejects_indefinite_coefficient():
    space = MixedSpace(two_triangle_square(), 0)
    bad = asm.Coefficient(lambda x, y: np.broadcast_to(
        np.array([[1.0, 0.0], [0.0, -1.0]]), np.shape(x) + (2, 2)
    ))
    with pytest.raises(asm.CoefficientNotSPDError):
        asm.assemble_system(space, bad)


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


def _full_coefficient(x, y):
    # symmetric, x-y coupled and uniformly positive definite on the unit square
    return np.stack(
        [np.stack([2.0 + x, y / 2], -1), np.stack([y / 2, 1.0 + y], -1)], -2
    )


@pytest.mark.parametrize("l", [0, 1])
def test_assembly_matches_per_cell_einsums(l):
    # jittered 5 x 5 grid: interior vertices moved by up to h/10 per axis
    base = unit_square_mesh(5)
    v = np.array(base.vertices)
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[interior] += np.random.default_rng(11).uniform(-0.02, 0.02, (interior.sum(), 2))
    space = MixedSpace(build_mesh(v, base.cells), l)
    coeff = asm.Coefficient(_full_coefficient)
    system = asm.assemble_system(space, coeff)

    # reference: per-cell element matrices from basis samples, scattered
    pts, w = space.quad_points, space.quad_weights
    cells = np.arange(space.mesh.num_cells)
    sb = space.eval_stress_basis(cells, pts)  # (T, nq, nl, 2)
    db = space.eval_div_basis(cells, pts)  # (T, nq, nl)
    ub = space.eval_disp_basis(cells, pts)  # (T, nq, nd)
    alpha = np.linalg.inv(_full_coefficient(pts[..., 0], pts[..., 1]))
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
    diagonal = asm.Coefficient(lambda x, y: _full_coefficient(x, y) * np.eye(2))
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
    ops = asm.estimator_operators(space, asm.Coefficient())
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
    ops = asm.estimator_operators(space, asm.Coefficient())
    samples = _sigma_samples(ops.jump, field)
    assert abs(samples.sum() - hand) < 1e-12 * max(1.0, hand)
    # each of the two cells carries half of h_E times the edge integral
    halves = ops.cell_jump @ samples
    np.testing.assert_allclose(halves, 0.5 * mesh.h_edge[e] * hand, rtol=1e-12)


def test_curl_zero_for_rt0_identity_coefficient():
    space = MixedSpace(unit_square_mesh(3), 0)
    rng = np.random.default_rng(4)
    field = rng.standard_normal(space.n_stress)
    ops = asm.estimator_operators(space, asm.Coefficient())
    assert np.abs(_sigma_samples(ops.curl, field)).max() < 1e-20


def _ones(x, y):
    return np.stack([np.ones(np.shape(x)), np.ones(np.shape(x))], axis=-1)


def _y_then_zero(x, y):
    return np.stack([y, np.zeros(np.shape(x))], axis=-1)


def _diag_coefficient(a11, a22):
    def A(x, y):
        out = np.zeros(np.shape(x) + (2, 2))
        out[..., 0, 0] = a11(x, y)
        out[..., 1, 1] = a22(x, y)
        return out

    return asm.Coefficient(A)


def test_curl_variable_coefficient_fd_matches_analytic():
    # A = diag(1 + x/2, 1 + y/2), sigma constant: curl(alpha sigma) has the
    # closed form d/dx(sigma_2 / (1 + y/2)) - d/dy(sigma_1 / (1 + x/2)) = 0
    space = MixedSpace(unit_square_mesh(3), 0)
    A = _diag_coefficient(lambda x, y: 1 + x / 2, lambda x, y: 1 + y / 2)
    ops = asm.estimator_operators(space, A)
    assert np.abs(_sigma_samples(ops.curl, fortin_interpolate(space, _ones))).max() < 1e-12


@pytest.mark.parametrize("l, sigma, curl", [
    # the derivative of alpha is all of curl(alpha sigma)
    (0, _ones, lambda x, y: 0.5 / (1 + y / 2) ** 2 - 0.5 / (1 + x / 2) ** 2),
    (1, _ones, lambda x, y: 0.5 / (1 + y / 2) ** 2 - 0.5 / (1 + x / 2) ** 2),
    # -d/dy (y / (1 + y/2)): alpha d(sigma) and d(alpha) sigma both count
    (1, _y_then_zero, lambda x, y: -1.0 / (1 + y / 2) ** 2),
])
def test_curl_finite_difference_of_alpha_matches_closed_form(l, sigma, curl):
    # A = diag(1 + y/2, 1 + x/2); sigma is in RT_l, so its interpolant is exact
    space = MixedSpace(unit_square_mesh(3), l)
    A = _diag_coefficient(lambda x, y: 1 + y / 2, lambda x, y: 1 + x / 2)
    ops = asm.estimator_operators(space, A)
    got = _sigma_samples(ops.curl, fortin_interpolate(space, sigma))
    got = got.reshape(space.mesh.num_cells, -1).sum(axis=1)
    x, y = space.quad_points[..., 0], space.quad_points[..., 1]
    want = (space.quad_weights * curl(x, y) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


def test_jump_zero_on_one_cell_mesh():
    # a single triangle has no interior edge, so its jump term is 0
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    for l in (0, 1):
        space = MixedSpace(mesh, l)
        sigma = np.arange(space.n_stress, dtype=float)
        ops = asm.estimator_operators(space, asm.Coefficient())
        assert ops.jump.shape == (0, space.n_stress)
        se = spatial_estimate(
            space, sigma, np.zeros(space.quad_weights.shape), np.zeros(space.n_disp)
        )
        assert np.array_equal(se.jump, np.zeros(1))
