import numpy as np
import pytest
import sympy as sym

from mixedwave import verification as ver
from mixedwave.assembly import Coefficient
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
