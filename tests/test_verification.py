import numpy as np
import pytest
import sympy as sym

from mixedwave import estimators as est
from mixedwave import verification as ver
from mixedwave.assembly import Coefficient, _closed_form
from mixedwave.mesh import unit_square_mesh
from mixedwave.spaces import MixedSpace


def test_registered_problems_self_check():
    for name, factory in ver.PROBLEMS.items():
        p = factory()
        assert p.name == name
        assert p.self_check() < 1e-10


def test_self_check_rejects_inconsistent_problem():
    p = ver.standing_wave()
    # corrupt the forcing: the strong equation no longer holds
    p.f = lambda x, y, t: np.ones(np.shape(x))
    with pytest.raises(ver.SelfCheckError):
        p.self_check()


def test_manufactured_derives_forcing():
    x, y, t = sym.symbols("x y t", real=True)
    p = ver.manufactured("poly", (x ** 2 + y ** 2) * (1 + t ** 2))
    # f = u_tt - laplace u = 2(x^2 + y^2) - 4(1 + t^2)
    got = p.f(np.array([0.3]), np.array([0.7]), np.array([0.2]))
    expected = 2 * (0.3 ** 2 + 0.7 ** 2) - 4 * (1 + 0.2 ** 2)
    assert abs(got[0] - expected) < 1e-12


def test_standing_wave_has_no_forcing():
    assert ver.standing_wave().f is None
    assert ver.variable_coefficient().f is not None


def _random_points(n=200, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 0.5, n)


def test_forced_oscillation_forcing_closed_form():
    x, y, t = _random_points()
    S = np.sin(np.pi * x) * np.sin(np.pi * y)
    expected = (2 * np.pi ** 2 - 400) * S * np.cos(20 * t)
    got = ver.forced_oscillation().f(x, y, t)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


def test_variable_coefficient_forcing_closed_form():
    # A = diag(1 + x/2, 1 + y/2): f = pi/2 (pi x S + pi y S - sin pi(x + y)) cos(sqrt2 pi t)
    x, y, t = _random_points()
    S = np.sin(np.pi * x) * np.sin(np.pi * y)
    expected = (
        np.pi / 2
        * (np.pi * x * S + np.pi * y * S - np.sin(np.pi * (x + y)))
        * np.cos(np.sqrt(2) * np.pi * t)
    )
    got = ver.variable_coefficient().f(x, y, t)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


def test_registration_does_not_simplify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.simplify called during registration")

    monkeypatch.setattr(sym, "simplify", refuse)
    for name, factory in ver.PROBLEMS.items():
        p = factory()
        assert p.name == name
        assert p.self_check() < 1e-10
    assert ver.standing_wave().f is None


@pytest.mark.parametrize("name", sorted(ver.PROBLEMS))
def test_closed_forms_broadcast_time_against_points(name):
    # t of shape (5, 1, 1) against the (T, nq) cell quadrature gives the
    # five scalar-t evaluations, bit for bit
    p = ver.PROBLEMS[name]()
    pts = MixedSpace(unit_square_mesh(3), 1).quad_points
    x, y = pts[..., 0], pts[..., 1]
    times = 0.1 + 0.05 * np.array([0.05, 0.23, 0.5, 0.77, 0.95])
    closed_forms = [p.u, p.u_t, p.u_tt, p.sigma, p.div_sigma, p.f]
    for fn in filter(None, closed_forms):
        stacked = fn(x, y, times.reshape(5, 1, 1))
        np.testing.assert_array_equal(stacked, np.stack([fn(x, y, t) for t in times]))


def test_true_error_zero_for_projected_exact_data():
    # evaluate the error of the projected initial data at t = 0 only:
    # the projections are the best approximations, errors are O(h) small
    p = ver.standing_wave()
    traj = ver.solve_problem(p, 8, 2, T=0.01)
    err_u, err_s = ver.true_error(traj, p)
    e0 = ver.initial_errors(traj, p)
    assert abs(err_u[0] - e0[0]) < 1e-13
    assert abs(err_s[0] - e0[2]) < 1e-13
    assert err_u[0] < 0.1 and err_s[0] < 0.5


def test_true_error_detects_perturbation():
    p = ver.standing_wave()
    traj = ver.solve_problem(p, 4, 2, T=0.02)
    err_u, _ = ver.true_error(traj, p)
    traj.U[1] += 1.0
    err_u2, _ = ver.true_error(traj, p)
    assert err_u2[1] > err_u[1] + 0.5


def test_oracle_small_instance_both_indices():
    for l in (0, 1):
        assert ver.oracle_small_instance(rt_index=l) < 1e-11


def test_energy_drift_zero_without_forcing():
    p = ver.standing_wave()
    traj = ver.solve_problem(p, 4, 10, T=0.3)
    assert ver.energy_drift(traj) <= 1e-12


def test_spatial_study_requires_three_levels():
    with pytest.raises(ver.VerificationError):
        ver.run_spatial_study(ver.standing_wave(), mesh_levels=(4, 8))


def test_spatial_study_rejects_unknown_constants():
    with pytest.raises(ver.VerificationError, match="constants"):
        ver.run_spatial_study(ver.standing_wave(), mesh_levels=(2, 3, 4), constants="bogus")


def test_temporal_study_rejects_indivisible_reference():
    with pytest.raises(ver.VerificationError):
        ver.run_temporal_study(
            ver.standing_wave(), mesh_n=2, steps=(3,), ref_steps=8
        )


def test_quick_temporal_study_shape_and_rates():
    res = ver.run_temporal_study(
        ver.standing_wave(), mesh_n=8, steps=(5, 10, 20), ref_steps=80, T=0.5
    )
    assert res.kind == "temporal"
    assert len(res.k) == 3
    assert np.all(np.diff(res.err_u) < 0)
    assert res.rate_u[1] > 0.5
    assert "e13" in res.extras and len(res.extras["e13"]) == 3


def test_study_csv_columns(tmp_path):
    res = ver.run_temporal_study(
        ver.standing_wave(), mesh_n=4, steps=(4, 8, 16), ref_steps=32, T=0.4
    )
    path = tmp_path / "study.csv"
    res.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "level,h,k,err_u,err_sigma,bound_u,bound_sigma,"
        "eff_u,eff_sigma,rate_u,rate_sigma"
    )
    assert len(lines) == 4
    row = lines[1].split(",")
    assert row[0] == "0"
    assert abs(float(row[3]) - res.err_u[0]) < 1e-14


def test_solve_problem_uses_final_time_default():
    p = ver.standing_wave()
    traj = ver.solve_problem(p, 2, 4)
    assert abs(traj.grid.nodes[-1] - p.final_time) < 1e-14


def test_stress_error_matches_dense_form_for_full_coefficient():
    # every registered A is diagonal; this one exercises the off-diagonal
    # part of the quadratic form
    A = Coefficient(np.array([[2.0, 0.5], [0.5, 1.0]]))
    space = MixedSpace(unit_square_mesh(4), 1)
    alpha = A.alpha_at(space.quad_points)
    coeffs = np.random.default_rng(6).standard_normal(space.n_stress)
    exact = lambda x, y, t: np.stack([np.sin(x + t), x * y], axis=-1)
    got = ver._stress_error(space, alpha, coeffs, exact, 0.3)

    pts = space.quad_points
    d = space.stress_values(coeffs) - exact(pts[..., 0], pts[..., 1], 0.3)
    w = space.quad_weights
    dense = np.sqrt(np.einsum("tq,tqcd,tqc,tqd->", w, alpha, d, d))
    assert abs(got - dense) <= 1e-13 * dense
    diagonal = np.sqrt(np.einsum("tq,tqc,tqc->", w, alpha[..., [0, 1], [0, 1]], d * d))
    assert abs(dense - diagonal) > 1e-3 * dense


def test_full_coefficient_run_is_bounded_at_every_node():
    # A full, x-y coupled A, so d(alpha) enters the curl term off the
    # diagonal; built here, not registered
    x, y, t = ver._X, ver._Y, ver._T
    A = [[2 + x, y / 2], [y / 2, 1 + y]]
    p = ver.manufactured(
        "full-coefficient", ver._MODE * sym.cos(sym.sqrt(2) * sym.pi * t), A
    )
    assert not p.A.is_constant
    traj = ver.solve_problem(p, 4, 8, T=0.25, rt_index=1)
    err_u, err_s = ver.true_error(traj, p)
    rep = est.compose_report(
        traj, err_u=err_u, err_sigma=err_s,
        initial_errors=ver.initial_errors(traj, p),
    )
    assert np.all(rep.bound_u >= err_u)
    assert np.all(rep.bound_sigma >= err_s)


def test_a_variable_coefficient_round_evaluates_alpha_once(monkeypatch):
    # assembly, true errors and the report all read the alpha the
    # system was assembled with; none evaluates it at the cell
    # quadrature again
    problem = ver.variable_coefficient()
    calls = []
    alpha_at = Coefficient.alpha_at
    monkeypatch.setattr(
        Coefficient, "alpha_at", lambda self, pts: calls.append(pts) or alpha_at(self, pts)
    )
    traj = ver.solve_problem(problem, 3, 4, T=0.1)
    err_u, err_s = ver.true_error(traj, problem)
    est.compose_report(
        traj, err_u=err_u, err_sigma=err_s, initial_errors=ver.initial_errors(traj, problem)
    )
    quad = traj.space.quad_points
    at_quad = [p for p in calls if p.shape == quad.shape and np.array_equal(p, quad)]
    assert len(at_quad) == 1


def _unseparated(expr, x, y, t):
    """expr evaluated entry by entry, each a plain lambdified function."""
    if isinstance(expr, sym.MatrixBase):
        axes = (expr.rows,) if expr.cols == 1 else expr.shape
    else:
        axes, expr = (), sym.Matrix([expr])
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
    entries = [
        np.broadcast_to(sym.lambdify((ver._X, ver._Y, ver._T), e, "numpy")(x, y, t), shape)
        for e in expr
    ]
    return np.stack(entries, axis=-1).reshape(shape + axes)


_FULL = [[2 + ver._X, ver._Y / 2], [ver._Y / 2, 1 + ver._Y]]


def _registered_closed_forms(monkeypatch):
    """(expr, closed form) of every registered problem and of a full-A problem."""
    made = []

    def recording(expr):
        made.append((expr, _closed_form(expr)))
        return made[-1][1]

    monkeypatch.setattr(ver, "_closed_form", recording)
    for factory in ver.PROBLEMS.values():
        factory()
    ver.manufactured("full", ver._MODE * sym.cos(sym.sqrt(2) * sym.pi * ver._T), _FULL)
    return made


def test_separated_closed_forms_match_unseparated_lambdify(monkeypatch):
    made = _registered_closed_forms(monkeypatch)
    # u, u_t, u_tt, sigma, div sigma of 4 problems and f of the 3 forced
    assert len(made) == 23
    x, y, t = sym.symbols("x y t", real=True)
    made += [
        (sym.Matrix(_FULL), _closed_form(sym.Matrix(_FULL))),
        (sym.sin(sym.pi * x * t) + x * t ** 2, None),
        (sym.Matrix([x * sym.cos(t) + sym.sin(x * t) * y, (sym.cos(t) + x) * y]), None),
        (sym.Integer(3), None),
    ]
    pts = MixedSpace(unit_square_mesh(3), 1).quad_points
    grid = (pts[..., 0], pts[..., 1], np.linspace(0.0, 0.5, 7).reshape(7, 1, 1))
    for expr, fn in made:
        fn = fn or _closed_form(expr)
        for x, y, t in (grid, _random_points()):
            want = _unseparated(expr, x, y, t)
            got = fn(x, y, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_true_error_blocks_match_a_per_node_loop():
    p = ver.manufactured("full", ver._MODE * sym.cos(sym.sqrt(2) * sym.pi * ver._T), _FULL)
    traj = ver.solve_problem(p, 8, 39, T=0.2, rt_index=1)
    nodes = traj.grid.nodes
    block = ver._BLOCK_POINTS // traj.space.quad_weights.size
    assert 1 < block < len(nodes) and len(nodes) % block != 0
    err_u, err_s = ver.true_error(traj, p)

    space, alpha, w = traj.space, traj.system.alpha, traj.space.quad_weights
    x, y = space.quad_points[..., 0], space.quad_points[..., 1]
    for n, t in enumerate(nodes):
        du = space.disp_values(traj.U[n]) - p.u(x, y, t)
        ds = space.stress_values(traj.Sigma[n]) - p.sigma(x, y, t)
        want_u = np.sqrt(np.einsum("tq,tq->", w, du * du))
        want_s = np.sqrt(np.einsum("tq,tqcd,tqc,tqd->", w, alpha, ds, ds))
        np.testing.assert_allclose(err_u[n], want_u, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(err_s[n], want_s, rtol=1e-13, atol=0.0)
