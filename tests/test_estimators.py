import dataclasses
import gc
import weakref

import numpy as np
import pytest

from mixedwave import assembly as asm
from mixedwave import estimators as est
from mixedwave import solver
from mixedwave.assembly import Coefficient, assemble_system
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
        space,
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
    a = est.spatial_estimate(space, sig, r2, u)
    b = est.spatial_estimate(space, 3.0 * sig, 3.0 * r2, 3.0 * u)
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


@pytest.mark.parametrize("mode, per_step", [("average", 0), ("pointwise", 5)])
def test_temporal_estimate_samples_f_once_per_time(mode, per_step):
    # f_bar^j and, under "average", the forcing defect come from the run;
    # under "pointwise" the defect samples the five Gauss times of each
    # step.  The strong residual reads the run's f_bar^j and calls no f.
    f = lambda x, y, t: np.cos(5 * t) * (x + y)
    traj = _traj(N=8, T=0.4, f=f, forcing_mode=mode)
    times = []
    traj.f = lambda x, y, t: times.append(t) or f(x, y, t)
    est.temporal_estimate(traj)
    assert len(times) == per_step * 8
    for n in range(9):
        est.r2_strong_values(traj, n)
    assert len(times) == per_step * 8


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
        traj.space, traj.Sigma[-1], est.r2_strong_values(traj, 2), traj.U[-1]
    )
    path = tmp_path / "cells.csv"
    est.write_cellwise_csv(se, traj.space.mesh, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("cell,x,y,")
    assert len(lines) == traj.space.mesh.num_cells + 1


def _varcoef(x, y):
    out = np.zeros(np.shape(x) + (2, 2))
    out[..., 0, 0] = 1 + x / 2
    out[..., 0, 1] = out[..., 1, 0] = 0.1 * y
    out[..., 1, 1] = 1 + y / 2
    return out


def _estimate_data(space, seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(space.n_stress),
        rng.standard_normal(space.quad_weights.shape),
        rng.standard_normal(space.n_disp),
    )


def test_operator_cache_is_keyed_on_the_coefficient_object():
    # two coefficients on one space give what each gives on a fresh space
    space = MixedSpace(unit_square_mesh(3), 1)
    data = _estimate_data(space)
    coeffs = (Coefficient(np.diag([2.0, 0.5])), Coefficient(_varcoef))
    shared = [est.spatial_estimate(space, *data, A=c) for c in coeffs]
    assert len(space.operator_cache) == 2
    for c, got in zip(coeffs, shared):
        fresh = est.spatial_estimate(MixedSpace(unit_square_mesh(3), 1), *data, A=c)
        for f in dataclasses.fields(est.SpatialEstimate):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(fresh, f.name))
    assert shared[0].e2 != shared[1].e2


def test_repeated_calls_reuse_the_operators(monkeypatch):
    space = MixedSpace(unit_square_mesh(3), 1)
    data = _estimate_data(space)
    coeff = Coefficient(_varcoef)
    builds = []
    build = asm._build_estimator_operators
    monkeypatch.setattr(
        asm, "_build_estimator_operators", lambda *a: builds.append(a) or build(*a)
    )
    first = est.spatial_estimate(space, *data, A=coeff)
    again = est.spatial_estimate(space, *data, A=coeff)
    asm.estimator_operators(space, coeff)
    assert len(builds) == 1
    assert again.e1 == first.e1 and again.e2 == first.e2


def test_operator_cache_entry_dies_with_its_coefficient():
    space = MixedSpace(unit_square_mesh(3), 0)
    data = _estimate_data(space)
    coeff = Coefficient(_varcoef)
    est.spatial_estimate(space, *data, A=coeff)
    ops = weakref.ref(asm.estimator_operators(space, coeff))
    del coeff
    gc.collect()
    assert ops() is None
    assert len(space.operator_cache) == 0
    # one-off callers that pass a fresh coefficient leave nothing behind
    for _ in range(3):
        est.spatial_estimate(space, *data, A=np.diag([2.0, 3.0]))
    gc.collect()
    assert len(space.operator_cache) == 0
