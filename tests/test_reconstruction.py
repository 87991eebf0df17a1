import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy as sym

from mixedwave import reconstruction as rec
from mixedwave import solver
from mixedwave.assembly import _X, _Y, assemble_system, disp_l2_norm_cellwise, load_of_values
from mixedwave.mesh import build_mesh, unit_square_mesh
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
    u, s = solver.solve_mixed(fine_system, 0.0, np.zeros(space.n_disp))
    assert np.abs(u).max() == 0.0
    assert np.abs(s).max() == 0.0


@pytest.mark.parametrize("l", [0, 1])
def test_stacked_right_hand_sides_match_single_solves(l):
    space = MixedSpace(unit_square_mesh(3), l)
    system = assemble_system(space)
    rhs = np.random.default_rng(3).standard_normal((5, space.n_disp))
    u, s = solver.solve_mixed(system, 0.0, rhs)
    assert u.shape == (5, space.n_disp) and s.shape == (5, space.n_stress)
    for row in range(5):
        u1, s1 = solver.solve_mixed(system, 0.0, rhs[row])
        np.testing.assert_allclose(u[row], u1, rtol=1e-12, atol=1e-12 * np.abs(u1).max())
        np.testing.assert_allclose(s[row], s1, rtol=1e-12, atol=1e-12 * np.abs(s1).max())


def _jittered_mesh(n):
    """n x n grid with interior vertices moved by up to h/10 per axis."""
    base = unit_square_mesh(n)
    v = np.array(base.vertices)
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[interior] += np.random.default_rng(11).uniform(-0.1 / n, 0.1 / n, (interior.sum(), 2))
    return build_mesh(v, base.cells)


def _holed_mesh():
    """An 8 x 8 grid without the two cells of one interior square."""
    base = unit_square_mesh(8)
    square = 2 * (3 * 8 + 4)
    return build_mesh(base.vertices, np.delete(base.cells, [square, square + 1], axis=0))


_MESHES = {
    "jittered": lambda: _jittered_mesh(4),
    "holed": _holed_mesh,
    # no interior edge, so no multiplier
    "one cell": lambda: build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]]),
}


def _saddle_solve(system, c, rhs):
    """(u, sigma) rows of the mixed system of weight c from one sparse saddle-point solve."""
    n_s = system.space.n_stress
    K = sp.bmat([[system.M_sigma, -system.B.T], [system.B, c * system.M_u]], format="csc")
    b = np.hstack([np.zeros((len(rhs), n_s)), rhs]).T
    sol = spla.spsolve(K, b).reshape(len(b), -1)
    return sol[n_s:].T, sol[:n_s].T


_K = 0.05


def _reconstruction_solve(system, rows):
    """(u, sigma) rows of the mixed system of the reconstruction: weight 0."""
    return solver.solve_mixed(system, 0.0, rows)


def _step_solve(system, rows):
    """(u, sigma) rows of the mixed system of a step of size _K: weight 1 / _K^2."""
    return solver.solve_mixed(system, _K ** -2, rows)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("mesh", sorted(_MESHES))
def test_reconstruction_matches_a_saddle_point_solve(mesh, l):
    # the full coefficient couples x and y; it goes with the jittered mesh.
    # The reconstruction solves the mixed system of weight 0, a time step
    # that of weight 1 / k^2.
    A = sym.Matrix([[2 + _X, _Y / 2], [_Y / 2, 1 + _Y]]) if mesh == "jittered" else None
    system = assemble_system(MixedSpace(_MESHES[mesh](), l), A)
    rhs = np.random.default_rng(7).standard_normal((3, system.space.n_disp))
    for c, solve in ((0.0, _reconstruction_solve), (_K ** -2, _step_solve)):
        ref_u, ref_s = _saddle_solve(system, c, rhs)
        for rows, u_want, s_want in ((rhs, ref_u, ref_s), (rhs[0], ref_u[0], ref_s[0])):
            u, s = solve(system, rows)
            assert u.flags.c_contiguous and s.flags.c_contiguous
            for got, want in ((u, u_want), (s, s_want)):
                assert got.shape == want.shape
                np.testing.assert_allclose(
                    got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
                )


def test_reconstruction_solve_checks_its_residual(monkeypatch):
    # multipliers off by 1e-8 relative leave the two copies of each edge
    # dof apart, which trips the 1e-10 residual check on the mixed
    # equations, in the reconstruction (weight 0) and in solve_mixed at a
    # step's weight 1 / k^2 alike; the exact multiplier solve passes it.
    # test_solver.py checks the same of the steps that run takes
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    rhs = np.random.default_rng(3).standard_normal((5, space.n_disp))

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-8)

    for c, solve in ((0.0, _reconstruction_solve), (_K ** -2, _step_solve)):
        solve(system, rhs)
        condensed = system._factor_cache[c]  # kept under the exact weight
        perturbed = dataclasses.replace(condensed, lu=Perturbed(condensed.lu))
        monkeypatch.setitem(system._factor_cache, c, perturbed)
        with pytest.raises(solver.ToleranceNotMetError, match="1e-10"):
            solve(system, rhs)
        with pytest.raises(solver.ToleranceNotMetError):
            solve(system, rhs[0])
        monkeypatch.undo()


def test_galerkin_orthogonality_enriched():
    for l in (0, 1):
        traj = _standing_traj(l=l)
        recon = rec.reconstruct_trajectory(traj)
        for rows in (recon.u_tilde, recon.sigma_tilde, recon.U_fine, recon.Sigma_fine):
            assert rows.flags.c_contiguous
        for n in range(traj.grid.num_steps + 1):
            scale = max(1.0, np.abs(traj.Sigma[n]).max())
            r1, r2 = rec.galerkin_orthogonality(recon, n)
            assert r1 < 1e-9 * scale
            assert r2 < 1e-9 * scale
            # (alpha sigma_t, v) - (u_t, div v) = 0 on the enriched basis
            fs = recon.fine_system
            r = fs.M_sigma @ recon.sigma_tilde[n] - fs.B.T @ recon.u_tilde[n]
            assert np.abs(r).max() < 1e-9 * scale


def test_trajectory_reconstruction_holds_only_its_outputs():
    # 16 x 16 RT1, N = 80, average forcing: the loads, the products over
    # all nodes and the multiplier solves run in node blocks, so the
    # transient peak stays within 2 MiB of what the reconstruction keeps
    # (a whole-trajectory right-hand side alone is 4 MB), and the
    # one-use enriched factor is released
    space = MixedSpace(unit_square_mesh(16), 1)
    f = lambda x, y, t: np.sin(np.pi * x) * y * np.cos(3.0 * t)
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    grid = solver.uniform_grid(0.5, 80)
    traj = solver.run(assemble_system(space), f, u0, u1, grid, forcing_mode="average")
    enr = rec.enrich_space(space)
    traj.d2U  # kept on the trajectory; built before the measurement
    tracemalloc.start()
    try:
        recon = rec.reconstruct_trajectory(traj, enriched=enr)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 2 * 2 ** 20, (peak, held)
    fs = recon.fine_system
    assert fs._factor_cache == {}
    # of its quadrature maps, the enriched space built only the one its
    # loads read
    built = vars(recon.enriched.fine)
    names = ("stress_quad_map", "div_quad_map", "disp_quad_map")
    assert [name for name in names if name in built] == ["disp_quad_map"]
    for rows in (recon.u_tilde, recon.sigma_tilde, recon.U_fine, recon.Sigma_fine):
        assert rows.flags.c_contiguous and len(rows) == grid.num_steps + 1

    def close(got, want, scale):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)

    # SuperLU solves a block of right-hand sides with other kernels than
    # a single one, so the reconstructions agree to round-off relative to
    # the node's solution (u, sigma) as a whole; the transfers are exact
    loads = np.concatenate([
        load_of_values(fs.space, fbar)
        for _, fbar, _ in solver.forcing_blocks(fs.space, f, grid, "average")
    ])
    for n in range(grid.num_steps + 1):
        u, s = solver.solve_mixed(fs, 0.0, loads[n] - fs.M_u @ (enr.P_disp @ traj.d2U[n]))
        scale = max(np.abs(u).max(), np.abs(s).max())
        close(recon.u_tilde[n], u, scale)
        close(recon.sigma_tilde[n], s, scale)
        want = enr.P_disp @ traj.U[n]
        close(recon.U_fine[n], want, np.abs(want).max())
        want = enr.P_stress @ traj.Sigma[n]
        close(recon.Sigma_fine[n], want, np.abs(want).max())


def test_enriched_solution_beats_coarse():
    # mixed Poisson with known solution; the enriched reconstruction is
    # strictly more accurate than the coarse mixed solve
    uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    g = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def solve(spc):
        load = load_of_values(spc, g(spc.quad_points[..., 0], spc.quad_points[..., 1]))
        return solver.solve_mixed(assemble_system(spc), 0.0, load)[0]

    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(4), l)
        u_c = solve(space)
        enr = rec.enrich_space(space, 1)
        u_f = solve(enr.fine)

        def err(spc, coeffs):
            pts = spc.quad_points
            d = spc.disp_values(coeffs) - uex(pts[..., 0], pts[..., 1])
            return float(np.sqrt((disp_l2_norm_cellwise(spc, d) ** 2).sum()))

        assert err(enr.fine, u_f) < err(space, u_c)


@pytest.mark.parametrize("mode", ["pointwise", "average"])
def test_forcing_blocks_of_one_node_change_no_output(mode, monkeypatch):
    # the run and the reconstruction sample f_bar^n in node blocks, one f
    # call each; with blocks of one node every output they feed is
    # bit-identical to the default blocking, on a graded grid of three
    # step sizes (the other blocked loops get blocks of one node, or of
    # 8 in solve_mixed, too)
    space = MixedSpace(unit_square_mesh(3), 1)
    enr = rec.enrich_space(space)
    f = lambda x, y, t: np.cos(20 * t) * np.sin(np.pi * x) * (1.0 + y)
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    grid = solver.TimeGrid(np.cumsum([0.0] + [1 / 64] * 8 + [1 / 32] * 4 + [1 / 16] * 3))
    assert len(grid.sizes) == 3

    def outputs():
        calls = []
        counted = lambda x, y, t: calls.append(t) or f(x, y, t)
        traj = solver.run(assemble_system(space), counted, u0, u1, grid, forcing_mode=mode)
        recon = rec.reconstruct_trajectory(traj, enriched=enr)
        return len(calls), (traj.fbar_quad, traj.f_bar, traj.forcing_defect, recon.u_tilde)

    calls, default = outputs()
    assert calls == 2
    monkeypatch.setattr(solver, "_BLOCK_ENTRIES", 1)
    calls, one_node = outputs()
    assert calls == 2 * 16
    for got, want in zip(one_node, default):
        np.testing.assert_array_equal(got, want)
