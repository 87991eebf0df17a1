import dataclasses
import os
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mixedwave import quadrature, solver
from mixedwave.assembly import assemble_system, load_of_values
from mixedwave.mesh import two_triangle_square, unit_square_mesh
from mixedwave.spaces import MixedSpace


def _standing_data():
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    return u0, u1


def test_time_grid_validation():
    with pytest.raises(solver.GridError):
        solver.TimeGrid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(solver.GridError):
        solver.TimeGrid(np.array([0.1, 0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(solver.GridError):
            solver.TimeGrid(np.array([0.0, 0.5, bad]))


def test_time_grid_steps_are_computed_once_and_read_only():
    nodes = np.array([0.0, 0.1, 0.3, 0.6])
    grid = solver.TimeGrid(nodes)
    assert grid.steps is grid.steps
    np.testing.assert_allclose(grid.steps, [0.1, 0.2, 0.3], rtol=1e-15)
    assert grid.size_index.tolist() == [0, 1, 2]
    for a in (grid.nodes, grid.sizes, grid.size_index, grid.steps):
        with pytest.raises(ValueError):
            a[0] = 1.0
    nodes[1] = 0.2  # the grid holds its own copy
    assert grid.nodes[1] == 0.1 and nodes.flags.writeable


def test_time_grid_groups_steps_within_its_tolerance():
    # steps 3e-10 relative apart are one size, of the group's first step;
    # steps 1e-8 relative apart, or a factor apart, are not
    k = [0.1, 0.1 * (1 + 3e-10), 0.25, 0.1 * (1 - 3e-10), 0.25 * (1 + 1e-8), 0.25]
    grid = solver.TimeGrid(np.concatenate([[0.0], np.cumsum(k)]))
    t = grid.nodes
    assert grid.sizes.tolist() == [t[1], t[3] - t[2], t[5] - t[4]]
    assert grid.size_index.tolist() == [0, 0, 1, 0, 2, 1]
    assert np.array_equal(grid.steps, grid.sizes[grid.size_index])


def test_backward_difference_divides_by_each_steps_size():
    grid = solver.TimeGrid(np.array([0.0, 0.25, 0.75, 1.0]))
    rows = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [4.0, 2.0]])
    np.testing.assert_array_equal(
        grid.backward_difference(rows), [[4.0, 0.0], [2.0, -2.0], [8.0, 8.0]]
    )


def test_time_grids_compare_and_hash_by_identity():
    a, b = solver.uniform_grid(1.0, 4), solver.uniform_grid(1.0, 4)
    assert a == a and a != b and not (a == b)
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_interval_index():
    grid = solver.uniform_grid(1.0, 4)
    assert grid.interval_index(0.0) == 1
    assert grid.interval_index(0.25) == 1
    assert grid.interval_index(0.26) == 2
    assert grid.interval_index(1.0) == 4
    with pytest.raises(solver.GridError):
        grid.interval_index(1.5)


def test_zero_data_stays_zero():
    space = MixedSpace(unit_square_mesh(3), 0)
    system = assemble_system(space)
    z = lambda x, y: np.zeros(np.shape(x))
    traj = solver.run(system, None, z, z, solver.uniform_grid(0.5, 5))
    assert np.abs(traj.U).max() == 0.0
    assert np.abs(traj.Sigma).max() == 0.0
    assert traj.fbar_quad is None and traj.forcing_defect is None


def test_discrete_residuals_vanish():
    u0, u1 = _standing_data()
    for l in (0, 1):
        space = MixedSpace(unit_square_mesh(3), l)
        system = assemble_system(space)
        grid = solver.uniform_grid(0.4, 8)
        traj = solver.run(system, None, u0, u1, grid)
        for n in range(9):
            r1, r2 = solver.residual_functionals(traj, n)
            scale = max(1.0, np.abs(traj.Sigma[n]).max())
            assert np.abs(r1).max() < 1e-10 * scale
            if r2 is not None:
                scale2 = max(scale / grid.steps[0], 1.0)
                assert np.abs(r2).max() < 1e-9 * scale2


def test_one_step_matches_dense_solve():
    space = MixedSpace(two_triangle_square(), 0)
    system = assemble_system(space)
    f = lambda x, y, t: (1.0 + x + t) * np.ones_like(x)
    k = 0.1
    traj = solver.run(
        system, f, lambda x, y: x + y, lambda x, y: x - y, solver.uniform_grid(k, 1)
    )
    Ms, B, Mu = system.M_sigma.toarray(), system.B.toarray(), system.M_u.toarray()
    ns = space.n_stress
    K = np.block([[Ms, -B.T], [B, Mu / k ** 2]])
    rhs = np.concatenate(
        [np.zeros(ns), traj.f_bar[1] + Mu @ (traj.U[0] + k * traj.dtU[0]) / k ** 2]
    )
    sol = np.linalg.solve(K, rhs)
    assert np.abs(sol[:ns] - traj.Sigma[1]).max() < 1e-11
    assert np.abs(sol[ns:] - traj.U[1]).max() < 1e-11


def test_initial_acceleration_solves_discrete_equation():
    space = MixedSpace(unit_square_mesh(3), 0)
    system = assemble_system(space)
    u0, u1 = _standing_data()
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.2, 2))
    a0 = solver.initial_acceleration(traj)
    r = system.M_u @ a0 + system.B @ traj.Sigma[0] - traj.f_bar[0]
    assert np.abs(r).max() < 1e-11


@pytest.mark.parametrize("l", [0, 1])
def test_initial_acceleration_matches_a_sparse_solve(l):
    # the cellwise solve of the block-diagonal M_u against one sparse LU
    space = MixedSpace(unit_square_mesh(4), l)
    system = assemble_system(space)
    f = lambda x, y, t: (1.0 + x * y + t) * np.ones_like(x)
    traj = solver.run(system, f, *_standing_data(), solver.uniform_grid(0.2, 2))
    rhs = traj.f_bar[0] - system.B @ traj.Sigma[0]
    want = spla.spsolve(system.M_u.tocsc(), rhs)
    got = solver.initial_acceleration(traj)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_initial_stress_checks_its_residual(monkeypatch):
    # a mass-matrix factor whose solutions are off by 1e-8 relative trips
    # the 1e-10 residual check
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    U0 = np.random.default_rng(4).standard_normal(space.n_disp)
    Sigma0 = solver.initial_stress(system, U0)
    np.testing.assert_allclose(system.M_sigma @ Sigma0, system.B.T @ U0, rtol=0, atol=1e-12)
    splu = solver.spla.splu

    class Perturbed:
        def __init__(self, matrix):
            self.lu = splu(matrix)

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-8)

    monkeypatch.setattr(solver.spla, "splu", Perturbed)
    with pytest.raises(solver.ToleranceNotMetError, match="initial stress"):
        solver.initial_stress(system, U0)


def test_initial_acceleration_checks_its_residual(monkeypatch):
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    f = lambda x, y, t: (1.0 + x + t) * np.ones_like(x)
    traj = solver.run(system, f, *_standing_data(), solver.uniform_grid(0.2, 2))
    solver.initial_acceleration(traj)
    # the cellwise solves of M_u's blocks, off by 1e-8 relative
    solve = solver.np.linalg.solve
    monkeypatch.setattr(
        solver.np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-8)
    )
    with pytest.raises(solver.ToleranceNotMetError, match="initial acceleration"):
        solver.initial_acceleration(traj)


def test_second_differences_start_from_the_initial_acceleration():
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    f = lambda x, y, t: (1.0 + x + t) * np.ones_like(x)
    u0, u1 = _standing_data()
    grid = solver.TimeGrid(np.array([0.0, 0.05, 0.15, 0.2, 0.3]))
    traj = solver.run(system, f, u0, u1, grid)
    assert traj.d2U.shape == traj.dtU.shape
    np.testing.assert_array_equal(traj.d2U[0], solver.initial_acceleration(traj))
    for n in range(1, 5):
        np.testing.assert_array_equal(
            traj.d2U[n], (traj.dtU[n] - traj.dtU[n - 1]) / grid.steps[n - 1]
        )


@pytest.mark.parametrize("mode", ["pointwise", "average"])
def test_run_keeps_the_forcing_it_sampled(mode):
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    f = lambda x, y, t: np.cos(20 * t) * np.sin(np.pi * x) * (1.0 + y)
    u0, u1 = _standing_data()
    grid = solver.TimeGrid(np.array([0.0, 0.05, 0.15, 0.2, 0.3]))
    traj = solver.run(system, f, u0, u1, grid, forcing_mode=mode)
    pts, w = space.quad_points, space.quad_weights
    x, y = pts[..., 0], pts[..., 1]
    tau, wts = quadrature.segment_rule(9)
    assert traj.fbar_quad.shape == (5,) + w.shape
    for n in range(5):
        # oracle: a loop of scalar-t calls, summed in the run's order
        t0, t1 = grid.interval(n)
        if mode == "pointwise" or n == 0:
            fbar = f(x, y, t1)
        else:
            fbar = sum(wj * f(x, y, t0 + s * (t1 - t0)) for s, wj in zip(tau, wts))
        np.testing.assert_array_equal(traj.fbar_quad[n], fbar)
        # load vector oracle: per-cell integrals against the local basis
        ref = np.zeros(space.n_disp)
        np.add.at(
            ref, space.cell_disp_dofs,
            np.einsum(
                "tq,tq,tqa->ta", w, fbar,
                space.eval_disp_basis(np.arange(len(w)), pts),
            ),
        )
        for load in (traj.f_bar[n], load_of_values(space, fbar)):
            assert np.abs(load - ref).max() <= 1e-14 * np.abs(ref).max()

    # the forcing defect of either f_bar^n against the Gauss samples
    expected = [0.0]
    for n in range(1, 5):
        t0, t1 = grid.interval(n)
        k = t1 - t0
        g = [f(pts[..., 0], pts[..., 1], t0 + s * k) for s in tau]
        if mode == "pointwise":
            fbar = f(x, y, t1)
        else:
            fbar = sum(wj * gj for wj, gj in zip(wts, g))
        expected.append(sum(
            wj * k * np.sqrt(np.sum(w * (fbar - gj) ** 2)) for wj, gj in zip(wts, g)
        ))
    np.testing.assert_allclose(traj.forcing_defect, expected, rtol=1e-13, atol=0.0)


def test_gauss_samples_of_a_time_independent_f():
    # a forcing that ignores t and returns x.shape still gives f_bar^n at
    # every node, and its Gauss samples leave no forcing defect
    space = MixedSpace(unit_square_mesh(3), 1)
    pts = space.quad_points
    f = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
    want = f(pts[..., 0], pts[..., 1], 0.0)
    grid = solver.uniform_grid(0.2, 4)
    for mode in ("pointwise", "average"):
        blocks = list(solver.forcing_blocks(space, f, grid, mode, defect=True))
        fbar = np.concatenate([fb for _, fb, _ in blocks])
        defect = np.concatenate([d for _, _, d in blocks])
        assert fbar.shape == (5,) + pts.shape[:-1]
        for fs in fbar:
            # the five Gauss weights sum to 1 within round-off
            np.testing.assert_allclose(fs, want, rtol=1e-15, atol=0.0)
        assert np.abs(defect).max() <= 1e-15 * np.abs(want).max()
        if mode == "pointwise":
            np.testing.assert_array_equal(fbar, np.broadcast_to(want, fbar.shape))
            np.testing.assert_array_equal(defect, 0.0)


def test_run_rejects_unknown_forcing_mode_without_forcing():
    space = MixedSpace(unit_square_mesh(2), 0)
    system = assemble_system(space)
    u0, u1 = _standing_data()
    with pytest.raises(solver.SolverError, match="forcing_mode"):
        solver.run(system, None, u0, u1, solver.uniform_grid(0.2, 2), forcing_mode="avg")


def test_energy_nonincreasing_without_forcing():
    u0, u1 = _standing_data()
    space = MixedSpace(unit_square_mesh(4), 0)
    system = assemble_system(space)
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.5, 20))
    E = [traj.energy(n) for n in range(21)]
    assert all(E[i + 1] <= E[i] + 1e-12 for i in range(20))


def test_average_forcing_mode():
    space = MixedSpace(unit_square_mesh(3), 0)
    # f linear in t: the average over the step (0.2, 0.4] equals the
    # value at its midpoint 0.3
    f = lambda x, y, t: t * np.ones_like(x)
    [(_, avg, _)] = solver.forcing_blocks(space, f, solver.TimeGrid([0.0, 0.2, 0.4]), "average")
    [(_, mid, _)] = solver.forcing_blocks(space, f, solver.TimeGrid([0.0, 0.3]), "pointwise")
    load, mid = load_of_values(space, avg[2]), load_of_values(space, mid[1])
    assert np.abs(load - mid).max() < 1e-13


def test_trajectory_roundtrip(tmp_path):
    u0, u1 = _standing_data()
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.3, 3))
    solver.save_trajectory(traj, tmp_path / "out")
    nodes, U, Sigma, dtU = solver.load_states(tmp_path / "out")
    assert np.array_equal(nodes, traj.grid.nodes)
    assert np.array_equal(U, traj.U)
    assert np.array_equal(Sigma, traj.Sigma)
    assert np.array_equal(dtU, traj.dtU)


@pytest.mark.parametrize("nodes", [
    solver.uniform_grid(0.7, 187).nodes,
    # sizes 0.1 and 0.25, each step off its size by rounding or by 3e-10
    np.cumsum([0.0, 0.1, 0.1 * (1 + 3e-10), 0.25, 0.1, 0.25 * (1 - 3e-10), 0.25]),
])
def test_saved_steps_are_the_grids_and_read_back(tmp_path, nodes):
    grid = solver.TimeGrid(nodes)
    u0, u1 = _standing_data()
    traj = solver.run(assemble_system(MixedSpace(unit_square_mesh(2), 0)), None, u0, u1, grid)
    solver.save_trajectory(traj, tmp_path / "out")
    table = np.loadtxt(tmp_path / "out" / "grid.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 2], np.r_[0.0, grid.steps])
    assert len(set(table[1:, 2])) == len(grid.sizes) < len(set(np.diff(nodes)))
    loaded, U, _, _ = solver.load_states(tmp_path / "out")
    assert np.array_equal(loaded, grid.nodes) and np.array_equal(U, traj.U)


def test_truncated_state_file_raises(tmp_path):
    u0, u1 = _standing_data()
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.3, 3))
    out = tmp_path / "out"
    solver.save_trajectory(traj, out)
    path = out / "state_2.bin"
    size = path.stat().st_size
    os.truncate(path, size - 8)
    with pytest.raises(solver.SolverError, match="truncated"):
        solver.load_states(out)
    with open(path, "ab") as fh:
        fh.write(bytes(16))
    with pytest.raises(solver.SolverError, match="trailing"):
        solver.load_states(out)


def _saved_trajectory(out):
    u0, u1 = _standing_data()
    system = assemble_system(MixedSpace(unit_square_mesh(2), 0))
    solver.save_trajectory(
        solver.run(system, None, u0, u1, solver.uniform_grid(0.3, 3)), out
    )
    return out


def test_empty_grid_file_raises(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    (out / "grid.csv").write_text("")
    with pytest.raises(solver.SolverError, match=r"grid\.csv line 1"):
        solver.load_states(out)


def test_non_numeric_time_in_grid_file_raises(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    (out / "grid.csv").write_text("n,t_n,k_n\n0,0,0\n1,0.1,0.1\n2,soon,0.1\n")
    with pytest.raises(solver.SolverError, match=r"grid\.csv line 4: .*soon"):
        solver.load_states(out)


def test_non_increasing_grid_file_nodes_raise(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    (out / "grid.csv").write_text("n,t_n,k_n\n0,0,0\n1,0.1,0.1\n2,0.05,-0.05\n")
    with pytest.raises(solver.GridError, match=r"grid\.csv: .*strictly increase"):
        solver.load_states(out)


def _rewrite_grid(out, edit):
    """Rewrite the rows of a saved grid.csv (header kept) with `edit`."""
    path = out / "grid.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(rows)) + "\n")


def test_fewer_grid_rows_than_state_files_raise(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    _rewrite_grid(out, lambda rows: rows[:2])
    with pytest.raises(solver.SolverError, match=r"state_2\.bin has no row in .*grid\.csv"):
        solver.load_states(out)


def test_grid_row_without_state_file_raises(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    _rewrite_grid(out, lambda rows: rows + ["4,0.4,0.1"])
    with pytest.raises(solver.SolverError, match=r"state_4\.bin is missing"):
        solver.load_states(out)


def test_wrong_node_index_in_grid_file_raises(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    _rewrite_grid(out, lambda rows: [rows[0], "7" + rows[1][1:]] + rows[2:])
    with pytest.raises(solver.SolverError, match=r"grid\.csv line 3: n is 7, expected 1"):
        solver.load_states(out)


def test_wrong_step_in_grid_file_raises(tmp_path):
    out = _saved_trajectory(tmp_path / "out")
    _rewrite_grid(out, lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",0.2"] + rows[3:])
    with pytest.raises(solver.SolverError, match=r"grid\.csv line 4: k_n is 0\.2"):
        solver.load_states(out)


def test_interrupted_save_leaves_no_short_state_file(tmp_path, monkeypatch):
    u0, u1 = _standing_data()
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    traj = solver.run(system, None, u0, u1, solver.uniform_grid(0.3, 3))
    out = tmp_path / "out"
    solver.save_trajectory(traj, out)
    size = (out / "state_0.bin").stat().st_size

    class HalfWriter:
        """Writes half of the first block it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    opened = []

    def open_failing_third(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        opened.append(path)
        return HalfWriter(fh) if len(opened) == 3 else fh

    # the third file written is state_1.bin
    monkeypatch.setattr(solver, "open", open_failing_third, raising=False)
    with pytest.raises(OSError, match="no space"):
        solver.save_trajectory(traj, out)
    monkeypatch.undo()
    names = ["grid.csv"] + ["state_{}.bin".format(n) for n in range(4)]
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / name).stat().st_size == size for name in names[1:])
    _, U, _, _ = solver.load_states(out)
    assert np.array_equal(U, traj.U)


def test_one_factorization_per_nominal_step():
    # the node differences of these grids take several float values, which
    # a cache keyed on c rounded to 12 digits split over two factors for
    # all but (0.5, 40); the grid gives them the one step size T / N
    space = MixedSpace(unit_square_mesh(2), 0)
    u0, u1 = _standing_data()
    for T, N in ((0.5, 40), (0.7, 187), (0.3, 277), (1.5, 377)):
        system = assemble_system(space)
        grid = solver.uniform_grid(T, N)
        assert len(set(np.diff(grid.nodes).tolist())) > 1
        assert grid.sizes.tolist() == [T / N] and np.all(grid.steps == T / N)
        assert grid.nodes[-1] == T and grid.num_steps == N
        solver.run(system, None, u0, u1, grid)
        assert list(system._factor_cache) == [1.0 / (T / N) ** 2], (T, N)


def test_graded_run_keeps_one_factorization_per_step_size():
    # three decimal sizes, whose node differences round apart
    space = MixedSpace(unit_square_mesh(2), 0)
    system = assemble_system(space)
    grid = solver.TimeGrid(np.cumsum([0.0] + [0.01] * 7 + [0.03] * 5 + [0.1] * 4 + [0.03] * 2))
    assert len(set(np.diff(grid.nodes).tolist())) > 3
    u0, u1 = _standing_data()
    solver.run(system, None, u0, u1, grid)
    assert len(grid.sizes) == 3
    assert sorted(system._factor_cache) == sorted(1.0 / grid.sizes ** 2)


def _two_step_sizes():
    """A forced RT1 run's data on a grid with steps 0.05 and 0.1."""
    space = MixedSpace(unit_square_mesh(3), 1)
    f = lambda x, y, t: (1.0 + x * y + t) * np.ones_like(x)
    grid = solver.TimeGrid(np.array([0.0, 0.05, 0.1, 0.15, 0.25, 0.35]))
    return assemble_system(space), f, grid


@pytest.mark.parametrize("one_step_blocks", [False, True])
def test_run_checks_every_step_at_its_own_weight(monkeypatch, one_step_blocks):
    # run checks all steps after its loop, each column at its own weight
    # 1 / k_n^2: a correct run with two step sizes passes, and multipliers
    # off by 1e-8 relative from the factor of either size trip the 1e-10
    # residual check, in one node block or in one block per step
    system, f, grid = _two_step_sizes()
    if one_step_blocks:
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", 1)
    solver.run(system, f, *_standing_data(), grid)
    assert len(system._factor_cache) == 2

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-8)

    for key, condensed in list(system._factor_cache.items()):
        perturbed = dataclasses.replace(condensed, lu=Perturbed(condensed.lu))
        with monkeypatch.context() as m:
            m.setitem(system._factor_cache, key, perturbed)
            with pytest.raises(solver.ToleranceNotMetError, match="1e-10"):
                solver.run(system, f, *_standing_data(), grid)


def test_run_stops_at_the_step_with_non_finite_multipliers(monkeypatch):
    # a factor that returns NaN from its third solve on: run raises at
    # step 3, solves no further step and computes nothing from the NaN
    # (warnings are made errors here, as pyproject.toml does for RuntimeWarning)
    system, f, grid = _two_step_sizes()
    solver.run(system, f, *_standing_data(), grid)

    class NaNFromThird:
        calls = 0

        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            NaNFromThird.calls += 1
            x = self.lu.solve(b)
            return np.full_like(x, np.nan) if NaNFromThird.calls >= 3 else x

    for key, condensed in list(system._factor_cache.items()):
        monkeypatch.setitem(
            system._factor_cache, key, dataclasses.replace(condensed, lu=NaNFromThird(condensed.lu))
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.SingularSystemError, match="step 3"):
            solver.run(system, f, *_standing_data(), grid)
    assert NaNFromThird.calls == 3


class _Counting:
    """A matrix or factor whose products and solves are counted by name."""

    def __init__(self, wrapped, counts, name):
        self.wrapped, self.counts, self.name = wrapped, counts, name
        counts.setdefault(name, 0)

    def __matmul__(self, x):
        self.counts[self.name] += 1
        return self.wrapped @ x

    def solve(self, b):
        self.counts[self.name] += 1
        return self.wrapped.solve(b)

    @property
    def T(self):
        return _Counting(self.wrapped.T, self.counts, self.name + ".T")

    def __getattr__(self, attr):
        return getattr(self.wrapped, attr)


def _counted_run(N):
    """Products and solves by matrix of a forced run of N steps."""
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space)
    grid = solver.uniform_grid(0.5, N)
    solver._condense(system, 1.0 / grid.steps[0] ** 2)
    counts = {}
    for key, cond in list(system._factor_cache.items()):
        names = ("lu", "rhs_map", "lam_map", "load_map")
        system._factor_cache[key] = dataclasses.replace(
            cond, **{name: _Counting(getattr(cond, name), counts, name) for name in names}
        )
    for name in ("M_sigma", "B", "M_u"):
        setattr(system, name, _Counting(getattr(system, name), counts, name))
    f = lambda x, y, t: (1.0 + x + t) * np.ones_like(x)
    solver.run(system, f, *_standing_data(), grid)
    return counts


def test_run_makes_one_solve_and_four_sparse_products_per_step():
    # per step: the load's M_u product, the multiplier solve and its
    # right-hand side, and the two products of the recovery.  Beyond the
    # steps: initial_stress's M_sigma and B.T products, and the residual
    # check's five per node block (both runs are one block)
    for N in (4, 12):
        counts = _counted_run(N)
        assert counts == {
            "lu": N, "rhs_map": N, "lam_map": N, "load_map": N,
            "M_u": N + 2, "M_sigma": 2, "B": 1, "B.T": 2,
        }
