import numpy as np
import pytest

from mixedwave import reconstruction as rec
from mixedwave import solver
from mixedwave.assembly import assemble_load, assemble_system, disp_l2_norm_cellwise
from mixedwave.mesh import unit_square_mesh
from mixedwave.spaces import MixedSpace


def _standing_traj(n=4, l=0, N=4, T=0.2):
    space = MixedSpace(unit_square_mesh(n), l)
    system = assemble_system(space)
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    return solver.run(system, None, u0, u1, solver.uniform_grid(T, N))


def test_c1_constant_and_linear_reproduction():
    rng = np.random.default_rng(0)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, 6)), [1.0]])
    grid = solver.TimeGrid(nodes)
    itp = rec.c1_build(grid, np.full((len(nodes), 1), 2.5), [0.0])
    for t in rng.uniform(0, 1, 10):
        v, r, s = rec.c1_eval(itp, t)
        assert abs(v[0] - 2.5) < 1e-14 and abs(r[0]) < 1e-14 and abs(s[0]) < 1e-14
    itp = rec.c1_build(grid, nodes[:, None].copy(), [1.0])
    for t in rng.uniform(0, 1, 10):
        v, r, s = rec.c1_eval(itp, t)
        assert abs(v[0] - t) < 1e-13 and abs(r[0] - 1.0) < 1e-13 and abs(s[0]) < 1e-12


def test_c1_quadratic_closed_form_oracle():
    # direct substitution of the reconstruction formula at t_{3/2}
    grid = solver.uniform_grid(0.3, 3)
    k = 0.1
    itp = rec.c1_build(grid, (grid.nodes ** 2)[:, None].copy(), [0.0])
    t = grid.nodes[1] + k / 2
    dV2 = (grid.nodes[2] ** 2 - grid.nodes[1] ** 2) / k
    dV1 = (grid.nodes[1] ** 2 - 0.0) / k
    d2V2 = (dV2 - dV1) / k
    hand = grid.nodes[2] ** 2 - (k / 2) * dV2 - ((k / 2) * (k / 2) ** 2 / k) * d2V2
    v, _, _ = rec.c1_eval(itp, t)
    assert abs(v[0] - hand) < 1e-14


def test_c1_node_reproduction_and_continuity():
    rng = np.random.default_rng(1)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.9, 8)), [1.0]])
    grid = solver.TimeGrid(nodes)
    vals = rng.standard_normal((len(nodes), 2))
    itp = rec.c1_build(grid, vals, rng.standard_normal(2))
    for n in range(len(nodes)):
        v, r, _ = rec.c1_eval(itp, nodes[n])
        assert np.abs(v - itp.values[n]).max() < 1e-12
        assert np.abs(r - itp.rates[n]).max() < 1e-12
    # continuity across nodes: any jump would be O(values), far above the
    # drift of the smooth pieces over the 1e-13 offset
    eps = 1e-13
    tol = 100 * eps * (1.0 + np.abs(itp.seconds).max())
    for n in range(1, len(nodes) - 1):
        vl, rl, _ = rec.c1_eval(itp, nodes[n] - eps)
        vr, rr, _ = rec.c1_eval(itp, nodes[n] + eps)
        assert np.abs(vl - vr).max() < tol
        assert np.abs(rl - rr).max() < tol


def test_c1_second_derivative_identity():
    rng = np.random.default_rng(2)
    grid = solver.uniform_grid(1.0, 5)
    itp = rec.c1_build(grid, rng.standard_normal((6, 2)), rng.standard_normal(2))
    for t in rng.uniform(0.01, 1.0, 20):
        n = grid.interval_index(t)
        _, _, s = rec.c1_eval(itp, t)
        expected = (1.0 + rec.mu(grid, n, t)) * itp.seconds[n]
        assert np.abs(s - expected).max() < 1e-12


def test_mu_values_and_moments():
    rng = np.random.default_rng(3)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, 5)), [1.0]])
    grid = solver.TimeGrid(nodes)
    gx, gw = np.polynomial.legendre.leggauss(6)
    for n in range(1, grid.num_steps + 1):
        k = grid.steps[n - 1]
        assert abs(rec.mu(grid, n, grid.nodes[n]) + 3.0) < 1e-12
        assert abs(rec.mu(grid, n, grid.nodes[n - 1]) - 3.0) < 1e-12
        ts = grid.nodes[n - 1] + 0.5 * (gx + 1.0) * k
        w = 0.5 * gw * k
        assert abs((w * rec.mu(grid, n, ts)).sum()) < 1e-14
        moment = (
            w * (k ** -1 * (grid.nodes[n] - ts) ** 3 - (grid.nodes[n] - ts) ** 2)
        ).sum()
        assert abs(moment + k ** 3 / 12.0) < 1e-13 * max(k ** 3, 1e-6)


def test_mu_antiderivative_closed_form():
    # int from t_{j-1} to s of mu = -3/k [(s - t_{j-1/2})^2 - k^2/4]
    rng = np.random.default_rng(4)
    grid = solver.uniform_grid(1.0, 4)
    gx, gw = np.polynomial.legendre.leggauss(8)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        t0, t1 = grid.nodes[n - 1], grid.nodes[n]
        k = t1 - t0
        s = rng.uniform(t0, t1)
        ts = t0 + 0.5 * (gx + 1.0) * (s - t0)
        w = 0.5 * gw * (s - t0)
        numeric = (w * rec.mu(grid, n, ts)).sum()
        mid = 0.5 * (t0 + t1)
        closed = -3.0 / k * ((s - mid) ** 2 - k ** 2 / 4.0)
        assert abs(numeric - closed) < 1e-13


def test_c1_grid_mismatch():
    grid = solver.uniform_grid(1.0, 3)
    with pytest.raises(rec.GridMismatchError):
        rec.c1_build(grid, np.zeros((3, 1)), [0.0])


def test_c1_out_of_domain():
    grid = solver.uniform_grid(1.0, 3)
    itp = rec.c1_build(grid, np.zeros((4, 1)), [0.0])
    with pytest.raises(rec.OutOfDomainError):
        rec.c1_eval(itp, 1.5)


@pytest.mark.parametrize("l", [0, 1])
def test_prolongation_is_exact(l):
    rng = np.random.default_rng(5)
    space = MixedSpace(unit_square_mesh(3), l)
    enr = rec.enrich_space(space, 1)
    cs = rng.standard_normal(space.n_stress)
    cd = rng.standard_normal(space.n_disp)
    pts = enr.fine.quad_points
    parent = enr.parent_of_cell
    coarse = np.einsum(
        "tqkc,tk->tqc",
        space.eval_stress_basis(parent, pts),
        cs[space.cell_stress_dofs[parent]],
    )
    fine = enr.fine.stress_values(enr.P_stress @ cs)
    assert np.abs(coarse - fine).max() < 1e-11
    coarse_d = np.einsum(
        "tqa,ta->tq", space.eval_disp_basis(parent, pts), cd[space.cell_disp_dofs[parent]]
    )
    fine_d = enr.fine.disp_values(enr.P_disp @ cd)
    assert np.abs(coarse_d - fine_d).max() < 1e-11


def test_identity_enrichment_reproduces_states():
    for l in (0, 1):
        traj = _standing_traj(l=l)
        enr = rec.enrich_space(traj.space, 0)
        recon = rec.reconstruct_trajectory(traj, enriched=enr)
        for n in range(traj.grid.num_steps + 1):
            scale = max(1.0, np.abs(traj.Sigma[n]).max())
            assert np.abs(recon.u_tilde[n] - traj.U[n]).max() < 1e-9 * scale
            assert np.abs(recon.sigma_tilde[n] - traj.Sigma[n]).max() < 1e-9 * scale


def test_zero_data_reconstruction_is_zero():
    space = MixedSpace(unit_square_mesh(2), 0)
    fine_system = assemble_system(space)
    u, s = rec.reconstruct_elliptic(fine_system, np.zeros(space.n_disp))
    assert np.abs(u).max() == 0.0
    assert np.abs(s).max() == 0.0


@pytest.mark.parametrize("l", [0, 1])
def test_stacked_right_hand_sides_match_single_solves(l):
    space = MixedSpace(unit_square_mesh(3), l)
    system = assemble_system(space)
    rhs = np.random.default_rng(3).standard_normal((5, space.n_disp))
    u, s = rec.reconstruct_elliptic(system, rhs)
    assert u.shape == (5, space.n_disp) and s.shape == (5, space.n_stress)
    for row in range(5):
        u1, s1 = rec.reconstruct_elliptic(system, rhs[row])
        np.testing.assert_allclose(u[row], u1, rtol=1e-12, atol=1e-12 * np.abs(u1).max())
        np.testing.assert_allclose(s[row], s1, rtol=1e-12, atol=1e-12 * np.abs(s1).max())


def test_galerkin_orthogonality_enriched():
    for l in (0, 1):
        traj = _standing_traj(l=l)
        recon = rec.reconstruct_trajectory(traj)
        for n in range(traj.grid.num_steps + 1):
            scale = max(1.0, np.abs(traj.Sigma[n]).max())
            r1, r2 = rec.galerkin_orthogonality(recon, n)
            assert r1 < 1e-9 * scale
            assert r2 < 1e-9 * scale
            assert rec.enriched_mixed_residual(recon, n) < 1e-9 * scale


def test_enriched_solution_beats_coarse():
    # mixed Poisson with known solution; the enriched reconstruction is
    # strictly more accurate than the coarse mixed solve
    uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    g = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(4), l)
        u_c, _ = rec.reconstruct_elliptic(assemble_system(space), assemble_load(space, g))
        enr = rec.enrich_space(space, 1)
        u_f, _ = rec.reconstruct_elliptic(
            assemble_system(enr.fine), assemble_load(enr.fine, g)
        )

        def err(spc, coeffs):
            pts = spc.quad_points
            d = spc.disp_values(coeffs) - uex(pts[..., 0], pts[..., 1])
            return float(np.sqrt((disp_l2_norm_cellwise(spc, d) ** 2).sum()))

        assert err(enr.fine, u_f) < err(space, u_c)
