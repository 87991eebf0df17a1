import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy as sym

from mixedwave import assembly as asm
from mixedwave import estimators as est
from mixedwave import quadrature, solver
from mixedwave import verification as ver
from mixedwave.assembly import Coefficient, assemble_system, disp_l2_norm_cellwise
from mixedwave.mesh import unit_square_mesh
from mixedwave.spaces import MixedSpace


def _traj(n=4, l=0, N=5, T=0.25, f=None, forcing_mode="pointwise"):
    space = MixedSpace(unit_square_mesh(n), l)
    system = assemble_system(space)
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    u1 = lambda x, y: np.zeros(np.shape(x))
    return solver.run(
        system, f, u0, u1, solver.uniform_grid(T, N), forcing_mode=forcing_mode
    )


def test_zero_state_gives_zero_estimates():
    space = MixedSpace(unit_square_mesh(3), 0)
    se = est.spatial_estimate(
        assemble_system(space),
        np.zeros(space.n_stress),
        np.zeros_like(space.quad_weights),
        np.zeros(space.n_disp),
    )
    assert se.e1 == 0.0 and se.e2 == 0.0


def test_spatial_estimate_homogeneous_degree_one():
    rng = np.random.default_rng(0)
    space = MixedSpace(unit_square_mesh(3), 1)
    sig = rng.standard_normal(space.n_stress)
    r2 = rng.standard_normal(space.quad_weights.shape)
    u = rng.standard_normal(space.n_disp)
    system = assemble_system(space)
    a = est.spatial_estimate(system, sig, r2, u)
    b = est.spatial_estimate(system, 3.0 * sig, 3.0 * r2, 3.0 * u)
    assert abs(b.e1 - 3.0 * a.e1) < 1e-10 * max(a.e1, 1.0)
    assert abs(b.e2 - 3.0 * a.e2) < 1e-10 * max(a.e2, 1.0)


def test_e12_closed_form():
    # uniform grid, constant-in-time second difference of norm c:
    # e12 accumulates 1.5 k c per interval
    traj = _traj(n=3, N=4, T=0.2)
    te = est.temporal_estimate(traj)
    k = traj.grid.steps
    space = traj.space

    def norm(j):
        v = space.disp_values(traj.d2U[j])
        return float(np.sqrt(np.einsum("tq,tq->", space.quad_weights, v ** 2)))

    expected = np.cumsum([1.5 * k[j - 1] * norm(j) for j in range(1, 5)])
    assert np.abs(te.e12[1:] - expected).max() < 1e-12 * max(expected[-1], 1.0)
    assert np.abs(te.e22[1:] - np.cumsum(
        [k[j - 1] ** 2 * norm(j) for j in range(1, 5)]
    )).max() < 1e-12


def test_forcing_defect_zero_for_pointwise_time_independent_f():
    f = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
    traj = _traj(f=f)
    te = est.temporal_estimate(traj)
    assert np.abs(te.e14).max() < 1e-12
    assert np.abs(te.e24).max() < 1e-12


def test_forcing_defect_positive_for_time_dependent_f():
    f = lambda x, y, t: np.cos(8 * t) * np.ones_like(x)
    traj = _traj(f=f)
    te = est.temporal_estimate(traj)
    assert te.e14[-1] > 0.0
    assert te.e24[-1] > 0.0


@pytest.mark.parametrize("mode, node_rows", [("average", 0), ("pointwise", 1)])
def test_temporal_estimate_samples_f_once_per_time(mode, node_rows):
    # the run samples f once at each time it needs, in one call for these
    # nine nodes: t_n under "pointwise" (node_rows), then the five Gauss
    # times of each step, which build f_bar^n under "average" and the
    # forcing defect under both.  temporal_estimate and the strong
    # residual read what the run kept and call no f.
    f = lambda x, y, t: np.cos(5 * t) * (x + y)
    times = []
    traj = _traj(N=8, T=0.4, f=lambda x, y, t: times.append(t) or f(x, y, t), forcing_mode=mode)
    [t] = times
    assert np.shape(t) == ((node_rows + 5) * 9, 1, 1)
    t = np.reshape(t, (node_rows + 5, 9))
    np.testing.assert_array_equal(t[:node_rows], traj.grid.nodes[None][:node_rows])
    tau, _ = quadrature.segment_rule(9)
    for n in range(9):
        t_prev, t_n = traj.grid.interval(n)
        np.testing.assert_allclose(
            t[node_rows:, n], t_prev + tau * (t_n - t_prev), rtol=1e-15, atol=0.0
        )
    est.temporal_estimate(traj)
    for n in range(9):
        est.r2_strong_values(traj, n)
    assert len(times) == 1


def test_temporal_accumulators_nondecreasing():
    f = lambda x, y, t: np.cos(5 * t) * (x + y)
    traj = _traj(f=f, forcing_mode="average")
    te = est.temporal_estimate(traj)
    for name in ("e11", "e12", "e13", "e14", "e21", "e22", "e23", "e24"):
        arr = getattr(te, name)
        assert arr[0] == 0.0
        assert np.all(np.diff(arr) >= -1e-15)


def test_rate_estimate_vanishes_for_stationary_state():
    # zero data: state constant in time, all differences vanish
    space = MixedSpace(unit_square_mesh(3), 0)
    system = assemble_system(space)
    z = lambda x, y: np.zeros(np.shape(x))
    traj = solver.run(system, None, z, z, solver.uniform_grid(0.3, 3))
    rep = est.compose_report(traj)
    assert np.all(rep.components["e3n"] == 0.0)
    assert np.all(rep.components["e8n"] == 0.0)


def test_compose_report_shapes_and_policies():
    traj = _traj(N=4, T=0.2)
    rep = est.compose_report(traj)
    assert rep.bound_u.shape == (5,)
    assert rep.bound_sigma.shape == (5,)
    assert np.all(rep.bound_u >= 0.0)
    for name in est._COMPONENT_NAMES:
        assert rep.components[name].shape == (5,)
    with pytest.raises(est.EstimatorError):
        est.compose_report(traj, constants="magic")
    with pytest.raises(est.MissingSeriesError):
        est.compose_report(traj, constants="calibrated")
    with pytest.raises(est.MissingSeriesError):
        rep.effectivity_u()


def test_calibration_hits_target():
    traj = _traj(N=4, T=0.2)
    rng = np.random.default_rng(2)
    err_u = np.abs(rng.standard_normal(5)) + 0.1
    err_sigma = np.abs(rng.standard_normal(5)) + 0.1
    unit = est.compose_report(traj, err_u=err_u, err_sigma=err_sigma)
    s = est.calibrate_scales(unit, target=2.0)
    cal = est.compose_report(
        traj, constants="calibrated", calibration=s, err_u=err_u, err_sigma=err_sigma
    )
    assert abs(cal.effectivity_u() - 2.0) < 1e-10
    assert abs(cal.effectivity_sigma() - 2.0) < 1e-10


def test_report_csv_roundtrip(tmp_path):
    traj = _traj(N=3, T=0.15)
    err = np.linspace(0.01, 0.05, 4)
    rep = est.compose_report(traj, err_u=err, err_sigma=err)
    path = tmp_path / "report.csv"
    est.write_report_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["n", "t_n"]
    assert "bound_u" in header and "eff_sigma" in header
    assert len(lines) == 5
    row = dict(zip(header, lines[-1].split(",")))
    assert abs(float(row["bound_u"]) - rep.bound_u[-1]) < 1e-14


def test_report_csv_zero_error_and_exact_floats(tmp_path):
    traj = _traj(N=3, T=0.15)
    err_u = np.linspace(0.0, 0.03, 4)
    err_sigma = np.linspace(0.04, 0.01, 4)
    rep = est.compose_report(traj, err_u=err_u, err_sigma=err_sigma)
    path = tmp_path / "report.csv"
    est.write_report_csv(rep, path)
    header = path.read_text().splitlines()[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    col = dict(zip(header, table.T))
    assert col["eff_u"][0] == np.inf
    np.testing.assert_array_equal(col["n"], np.arange(4))
    expected = {
        "t_n": rep.grid.nodes,
        "bound_u": rep.bound_u,
        "bound_sigma": rep.bound_sigma,
        "err_u": err_u,
        "err_sigma": err_sigma,
        "eff_u": np.r_[np.inf, rep.bound_u[1:] / err_u[1:]],
        "eff_sigma": rep.bound_sigma / err_sigma,
        **rep.components,
    }
    assert set(expected) == set(header) - {"n"}
    for name, values in expected.items():
        assert np.array_equal(col[name], values), name


def test_cellwise_csv(tmp_path):
    traj = _traj(N=2, T=0.1)
    se = est.spatial_estimate(
        traj.system, traj.Sigma[-1], est.r2_strong_values(traj, 2), traj.U[-1]
    )
    path = tmp_path / "cells.csv"
    est.write_cellwise_csv(se, traj.space.mesh, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("cell,x,y,")
    assert len(lines) == traj.space.mesh.num_cells + 1


_x, _y = asm._X, asm._Y
_varcoef = sym.Matrix([[1 + _x / 2, _y / 10], [_y / 10, 1 + _y / 2]])


def _estimate_data(space, seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(space.n_stress),
        rng.standard_normal(space.quad_weights.shape),
        rng.standard_normal(space.n_disp),
    )


_INGREDIENTS = ("residual_low", "residual_high", "gradient", "jump", "curl")


def _eager_ingredients(system, sigma, r2, u):
    """All five ingredients formed at once, the gradient defect as the sum
    of its Sigma and U products."""
    space, ops = system.space, system.estimator_ops
    h, n_s = space.mesh.h_cell, space.n_stress
    r2_cell = disp_l2_norm_cellwise(space, r2)
    defect = ops.defect[:, :n_s] @ sigma + ops.defect[:, n_s:] @ u
    return {
        "residual_low": h ** (space.rt_index + 1) * r2_cell,
        "residual_high": h * r2_cell,
        "gradient": h * est._block_norms(defect, len(h)),
        "jump": np.sqrt(ops.cell_jump @ (ops.jump @ sigma) ** 2),
        "curl": h * est._block_norms(ops.curl @ sigma, len(h)),
    }


@pytest.mark.parametrize("A", [np.array([[2.0, 0.3], [0.3, 1.0]]), _varcoef],
                         ids=["constant", "variable"])
@pytest.mark.parametrize("l", [0, 1])
def test_ingredients_match_their_eager_formulas(l, A):
    space = MixedSpace(unit_square_mesh(3), l)
    system = assemble_system(space, Coefficient(A))
    data = _estimate_data(space)
    se = est.spatial_estimate(system, *data)
    for name, want in _eager_ingredients(system, *data).items():
        assert np.array_equal(getattr(se, name), want), name


class _Logged:
    """A sparse operator that logs its name at each product taken with it."""

    def __init__(self, name, op, log):
        self.name, self.op, self.log = name, op, log

    def __matmul__(self, other):
        self.log.append(self.name)
        return self.op @ other


def _log_products(system):
    """Swap the system's estimator operators for logged ones; return the log."""
    log, ops = [], system.estimator_ops
    system.estimator_ops = dataclasses.replace(ops, **{
        f.name: _Logged(f.name, getattr(ops, f.name), log) for f in dataclasses.fields(ops)
    })
    return log


def test_reading_e1_forms_no_jump_or_curl_product():
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space, Coefficient(_varcoef))
    log = _log_products(system)
    se = est.spatial_estimate(system, *_estimate_data(space))
    assert se.e1 > 0.0
    assert log == ["defect"]
    e2 = se.e2
    assert se.e2 == e2 > 0.0  # jump and curl are kept from the first read
    assert sorted(log) == ["cell_jump", "curl", "defect", "jump"]


def test_compose_report_forms_jump_and_curl_at_the_nodes_only():
    # 3N+2 estimates, one product of the defect each; jump and curl at
    # the N+1 nodes and again for e50 at node 0
    N = 5
    traj = _traj(N=N)
    log = _log_products(traj.system)
    est.compose_report(traj)
    assert Counter(log) == {
        "defect": 3 * N + 2, "jump": N + 2, "cell_jump": N + 2, "curl": N + 2,
    }


def test_jump_and_curl_read_the_estimates_own_stress():
    space = MixedSpace(unit_square_mesh(3), 1)
    system = assemble_system(space, Coefficient(_varcoef))
    sigma, r2, u = _estimate_data(space)
    want = est.spatial_estimate(system, sigma.copy(), r2, u)
    got = est.spatial_estimate(system, sigma, r2, u)
    sigma[:] = _estimate_data(space, seed=6)[0]
    for name in ("jump", "curl"):
        assert getattr(want, name).any()
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_compose_report_transient_memory_stays_under_one_mib():
    # The finest level of the standing-wave study (RT0, 16 x 16, N = 128).
    # The report holds one estimate at a time, so its temporaries stay at
    # node size; r_2 and its differences stacked over all nodes took 23 MB.
    traj = ver.solve_problem(ver.standing_wave(), 16, 128)
    traj.system.estimator_ops  # the system's, built once and kept
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        report = est.compose_report(traj)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.bound_u.shape == (129,)
    assert peak - held <= 1 << 20


def test_systems_of_two_coefficients_on_one_space_match_fresh_spaces():
    # each system owns the operators of its own coefficient, whatever
    # else was assembled on the same space
    space = MixedSpace(unit_square_mesh(3), 1)
    data = _estimate_data(space)
    coeffs = (Coefficient(np.diag([2.0, 0.5])), Coefficient(_varcoef))
    shared = [est.spatial_estimate(assemble_system(space, c), *data) for c in coeffs]
    for c, got in zip(coeffs, shared):
        fresh_space = MixedSpace(unit_square_mesh(3), 1)
        fresh = est.spatial_estimate(assemble_system(fresh_space, c), *data)
        for name in _INGREDIENTS:
            np.testing.assert_array_equal(getattr(got, name), getattr(fresh, name))
    assert shared[0].e2 != shared[1].e2


def test_the_operators_are_built_once_per_system(monkeypatch):
    space = MixedSpace(unit_square_mesh(3), 1)
    data = _estimate_data(space)
    builds = []
    build = asm._build_estimator_ops
    monkeypatch.setattr(
        asm, "_build_estimator_ops", lambda *a: builds.append(a) or build(*a)
    )
    system = assemble_system(space, Coefficient(_varcoef))
    assert builds == []  # assembly alone does not build them
    first = est.spatial_estimate(system, *data)
    again = est.spatial_estimate(system, *data)
    assert system.estimator_ops is system.estimator_ops
    assert len(builds) == 1
    assert again.e1 == first.e1 and again.e2 == first.e2
    # a second system on the same space builds its own
    est.spatial_estimate(assemble_system(space, Coefficient(_varcoef)), *data)
    assert len(builds) == 2


def test_compose_report_accepts_only_the_runs_own_coefficient():
    traj = _traj(N=3, T=0.1)
    plain = est.compose_report(traj)
    own = est.compose_report(traj, A=traj.system.coefficient)
    np.testing.assert_array_equal(own.bound_u, plain.bound_u)
    np.testing.assert_array_equal(own.bound_sigma, plain.bound_sigma)
    # an equal but foreign coefficient, or a raw array, is refused
    for foreign in (Coefficient(), np.eye(2), np.diag([2.0, 1.0])):
        with pytest.raises(est.EstimatorError, match="assembled with"):
            est.compose_report(traj, A=foreign)
