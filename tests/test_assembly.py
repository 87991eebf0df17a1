import numpy as np
import pytest

from mixedwave import assembly as asm
from mixedwave.mesh import build_mesh, two_triangle_square, unit_square_mesh
from mixedwave.spaces import MixedSpace, fortin_interpolate, l2_project_scalar


def test_mass_matrix_total_is_domain_area():
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(3), l)
        system = asm.assemble_system(space)
        one = l2_project_scalar(space, lambda x, y: np.ones_like(x)).coefficients
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


def test_jump_zero_for_smooth_gradient_of_linear():
    # sigma = constant vector has continuous tangential component
    space = MixedSpace(unit_square_mesh(3), 0)
    field = fortin_interpolate(space, lambda x, y: np.stack(
        [np.full(np.shape(x), 2.0), np.full(np.shape(x), -1.0)], axis=-1
    ))
    jumps = asm.edge_tangential_jump(field)
    assert np.abs(jumps).max() < 1e-24


def test_jump_hand_oracle_single_edge():
    # two-cell square, RT0 field with one interior edge; compare against
    # an independent fine-sampled quadrature of the jump integrand
    mesh = two_triangle_square()
    space = MixedSpace(mesh, 0)
    rng = np.random.default_rng(2)
    field = space.stress_field(rng.standard_normal(space.n_stress))
    e = int(np.flatnonzero(~mesh.boundary_edge)[0])
    a, b = mesh.vertices[mesh.edges[e]]
    ts = np.polynomial.legendre.leggauss(12)
    pts = a + 0.5 * (ts[0][:, None] + 1.0) * (b - a)
    w = 0.5 * ts[1] * mesh.h_edge[e]
    tangent = mesh.edge_tangents()[e]
    left = field.eval(
        np.array([mesh.edge_cells[e, 0]]), pts[None, :, :]
    )[0]
    right = field.eval(
        np.array([mesh.edge_cells[e, 1]]), pts[None, :, :]
    )[0]
    jump = (left - right) @ tangent
    hand = (w * jump ** 2).sum()
    got = asm.edge_tangential_jump(field)[e]
    assert abs(got - hand) < 1e-12 * max(1.0, hand)


def test_curl_zero_for_rt0_identity_coefficient():
    space = MixedSpace(unit_square_mesh(3), 0)
    rng = np.random.default_rng(4)
    field = space.stress_field(rng.standard_normal(space.n_stress))
    curls = asm.curl_elementwise(field)
    assert np.abs(curls).max() < 1e-20


def test_curl_variable_coefficient_fd_matches_analytic():
    # A = diag(1 + x/2, 1 + y/2), sigma constant: curl(alpha sigma) has the
    # closed form d/dx(sigma_2 / (1 + y/2)) - d/dy(sigma_1 / (1 + x/2)) = 0
    space = MixedSpace(unit_square_mesh(3), 0)

    def A(x, y):
        out = np.zeros(np.shape(x) + (2, 2))
        out[..., 0, 0] = 1 + x / 2
        out[..., 1, 1] = 1 + y / 2
        return out

    field = fortin_interpolate(space, lambda x, y: np.stack(
        [np.full(np.shape(x), 1.0), np.full(np.shape(x), 1.0)], axis=-1
    ))
    curls = asm.curl_elementwise(field, A)
    assert np.abs(curls).max() < 1e-12


def test_jump_zero_on_one_cell_mesh():
    # a single triangle has no interior edge, so every jump integral is 0
    mesh = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    for l in (0, 1):
        space = MixedSpace(mesh, l)
        field = space.stress_field(np.arange(space.n_stress, dtype=float))
        assert np.array_equal(asm.edge_tangential_jump(field), np.zeros(3))
