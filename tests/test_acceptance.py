"""End-to-end acceptance suite.

Each test checks one numbered behavioral criterion of the solver and
prints a single pass/fail line with the measured quantity, bypassing
pytest capture so the lines appear in batch logs.  Shared expensive runs
(the spatial convergence study, the 20-step standing-wave trajectory)
are module-scoped fixtures.
"""

import numpy as np
import pytest

from mixedwave import estimators as est
from mixedwave import reconstruction as rec
from mixedwave import solver
from mixedwave import verification as ver
from mixedwave.assembly import assemble_system
from mixedwave.mesh import unit_square_mesh
from mixedwave.spaces import MixedSpace, fortin_interpolate, l2_project_scalar


def _announce(capsys, num, name, ok, detail):
    line = "criterion {:02d} {}: {} ({})".format(
        num, name, "PASS" if ok else "FAIL", detail
    )
    with capsys.disabled():
        print(line)
    return ok


@pytest.fixture(scope="module")
def standing_run():
    return ver.solve_problem(ver.standing_wave(), 8, 20)


@pytest.fixture(scope="module")
def spatial_study():
    return ver.run_spatial_study(
        ver.standing_wave(), mesh_levels=(8, 16, 32), coupling=0.25
    )


def _random_poly_vector(rng, degree=3):
    cx = rng.standard_normal((degree + 1, degree + 1))
    cy = rng.standard_normal((degree + 1, degree + 1))

    def fn(x, y):
        vx = sum(
            cx[i, j] * x ** i * y ** j
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        )
        vy = sum(
            cy[i, j] * x ** i * y ** j
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        )
        return np.stack([vx, vy], axis=-1)

    def div(x, y):
        dx = sum(
            i * cx[i, j] * x ** (i - 1) * y ** j
            for i in range(1, degree + 1)
            for j in range(degree + 1 - i)
        )
        dy = sum(
            j * cy[i, j] * x ** i * y ** (j - 1)
            for i in range(degree + 1)
            for j in range(1, degree + 1 - i)
        )
        return dx + dy

    return fn, div


def test_criterion_01_commuting_diagram(capsys):
    # ||div Pi_h v - P_h div v|| <= 1e-10 (1 + ||v||) for random
    # polynomial fields on three meshes and both element indices
    rng = np.random.default_rng(11)
    fields = [_random_poly_vector(rng) for _ in range(50)]
    worst = 0.0
    for n in (4, 8, 16):
        for l in (0, 1):
            space = MixedSpace(unit_square_mesh(n), l)
            w = space.quad_weights
            pts = space.quad_points
            for fn, div in fields:
                pi_v = fortin_interpolate(space, fn)
                p_div = l2_project_scalar(space, div)
                d = space.div_values(pi_v) - space.disp_values(p_div)
                gap = np.sqrt(np.einsum("tq,tq->", w, d ** 2))
                v = fn(pts[..., 0], pts[..., 1])
                vnorm = np.sqrt(np.einsum("tq,tqc,tqc->", w, v, v))
                worst = max(worst, gap / (1.0 + vnorm))
    ok = worst <= 1e-10
    assert _announce(
        capsys, 1, "commuting diagram", ok, "worst %.3g vs 1e-10" % worst
    )


def test_criterion_02_residual_orthogonality(capsys, standing_run):
    # both discrete residual functionals vanish on every basis function
    # at every step of the standing-wave run (n = 8, N = 20)
    traj = standing_run
    k = traj.grid.steps[0]
    worst = 0.0
    for n in range(traj.grid.num_steps + 1):
        r1, r2 = solver.residual_functionals(traj, n)
        scale = max(1.0, float(np.abs(traj.Sigma[n]).max()))
        worst = max(worst, float(np.abs(r1).max()) / scale)
        if r2 is not None:
            worst = max(worst, float(np.abs(r2).max()) / max(scale / k, 1.0))
    ok = worst <= 1e-9
    assert _announce(
        capsys, 2, "residual orthogonality", ok, "worst %.3g vs 1e-9" % worst
    )


def test_criterion_03_c1_identities(capsys):
    # node reproduction, mu endpoint values, zero mean and cubic moment
    # on 200 random nonuniform grids
    rng = np.random.default_rng(23)
    gx2, gw2 = np.polynomial.legendre.leggauss(2)
    gx4, gw4 = np.polynomial.legendre.leggauss(4)
    worst_node = worst_mu = worst_int = worst_mom = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 9))
        nodes = np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.05, 1.0, m))]
        )
        grid = solver.TimeGrid(nodes)
        vals = rng.standard_normal((m + 1, 2))
        itp = rec.c1_build(grid, vals, rng.standard_normal(2))
        scale = max(1.0, np.abs(vals).max())
        for n in range(m + 1):
            v, r, _ = rec.c1_eval(itp, nodes[n])
            worst_node = max(
                worst_node,
                np.abs(v - itp.values[n]).max() / scale,
                np.abs(r - itp.rates[n]).max() / max(1.0, np.abs(itp.rates).max()),
            )
        for n in range(1, m + 1):
            k = grid.steps[n - 1]
            worst_mu = max(
                worst_mu,
                abs(rec.mu(grid, n, nodes[n]) + 3.0),
                abs(rec.mu(grid, n, nodes[n - 1]) - 3.0),
            )
            ts = nodes[n - 1] + 0.5 * (gx2 + 1.0) * k
            worst_int = max(
                worst_int, abs((0.5 * gw2 * k * rec.mu(grid, n, ts)).sum())
            )
            ts = nodes[n - 1] + 0.5 * (gx4 + 1.0) * k
            mom = (
                0.5 * gw4 * k
                * (k ** -1 * (nodes[n] - ts) ** 3 - (nodes[n] - ts) ** 2)
            ).sum()
            worst_mom = max(worst_mom, abs(mom + k ** 3 / 12.0) / (k ** 3 / 12.0))
    ok = (
        worst_node <= 1e-12
        and worst_mu <= 1e-12
        and worst_int <= 1e-14
        and worst_mom <= 1e-13
    )
    assert _announce(
        capsys,
        3,
        "C1 reconstruction identities",
        ok,
        "node %.2g mu %.2g mean %.2g moment %.2g" % (
            worst_node, worst_mu, worst_int, worst_mom
        ),
    )


def test_criterion_04_reconstruction_orthogonality(capsys, standing_run):
    # the enriched reconstruction reproduces the discrete pair on the
    # original spaces at every node (enrichment level 1, 20 steps)
    recon = rec.reconstruct_trajectory(standing_run)
    worst = 0.0
    for n in range(standing_run.grid.num_steps + 1):
        scale = max(1.0, float(np.abs(standing_run.Sigma[n]).max()))
        r1, r2 = rec.galerkin_orthogonality(recon, n)
        worst = max(worst, r1 / scale, r2 / scale)
    ok = worst <= 1e-9
    assert _announce(
        capsys, 4, "reconstruction orthogonality", ok, "worst %.3g vs 1e-9" % worst
    )


def test_criterion_05_dense_oracle(capsys):
    # dense numpy re-solve of a tiny instance agrees with the sparse
    # path in every degree of freedom, solve and reconstruction alike
    worst = max(
        ver.oracle_small_instance(rt_index=0), ver.oracle_small_instance(rt_index=1)
    )
    ok = worst <= 1e-11
    assert _announce(
        capsys, 5, "dense-oracle equivalence", ok, "worst %.3g vs 1e-11" % worst
    )


def test_criterion_06_spatial_rates(capsys, spatial_study):
    # standing wave with k ~ h^2: first-order rates in h for both fields
    ru = spatial_study.rate_u[-1]
    rs = spatial_study.rate_sigma[-1]
    ok = abs(ru - 1.0) <= 0.25 and abs(rs - 1.0) <= 0.25
    assert _announce(
        capsys, 6, "spatial convergence", ok,
        "rate_u %.3f rate_sigma %.3f vs 1.0 +- 0.25" % (ru, rs),
    )


def test_criterion_07_temporal_rates(capsys):
    # fixed mesh, k in {1/20, 1/40, 1/80} against a k = 1/640 reference
    res = ver.run_temporal_study(
        ver.standing_wave(), mesh_n=32, steps=(10, 20, 40), ref_steps=320, T=0.5
    )
    ru = res.rate_u[-1]
    e13_rate = res.extras["e13_rate"][-1]
    ok = abs(ru - 1.0) <= 0.25 and 0.75 <= e13_rate <= 1.25
    assert _announce(
        capsys, 7, "temporal convergence", ok,
        "rate_u %.3f vs 1.0 +- 0.25, e13 exponent %.3f vs [0.75, 1.25]"
        % (ru, e13_rate),
    )


def test_criterion_08_reliability(capsys, spatial_study):
    # unit-constant bounds dominate the true errors on every level;
    # calibrated effectivity stays within one order of magnitude
    eu_unit = spatial_study.extras["eff_u_unit"]
    es_unit = spatial_study.extras["eff_sigma_unit"]
    eu_cal = spatial_study.extras["eff_u_calibrated"]
    es_cal = spatial_study.extras["eff_sigma_calibrated"]
    ok = (
        np.all(eu_unit >= 1.0)
        and np.all(es_unit >= 1.0)
        and np.all((eu_cal >= 1.0) & (eu_cal <= 10.0))
        and np.all((es_cal >= 1.0) & (es_cal <= 10.0))
    )
    assert _announce(
        capsys, 8, "reliability", ok,
        "unit eff_u %s eff_sigma %s, calibrated eff_u %s eff_sigma %s" % (
            np.round(eu_unit, 2), np.round(es_unit, 2),
            np.round(eu_cal, 2), np.round(es_cal, 2),
        ),
    )


def test_criterion_09_averaged_forcing_improvement(capsys):
    # interval-averaged forcing at least halves both forcing-defect
    # accumulators on the rapidly forced problem at equal step size
    p = ver.forced_oscillation()
    pw = ver.solve_problem(p, 8, 10, T=0.5, forcing_mode="pointwise")
    av = ver.solve_problem(p, 8, 10, T=0.5, forcing_mode="average")
    te_pw = est.temporal_estimate(pw)
    te_av = est.temporal_estimate(av)
    r14 = float(te_pw.e14[-1] / te_av.e14[-1])
    r24 = float(te_pw.e24[-1] / te_av.e24[-1])
    ok = r14 >= 2.0 and r24 >= 2.0
    assert _announce(
        capsys, 9, "averaged forcing improvement", ok,
        "e14 ratio %.3f e24 ratio %.3f vs >= 2" % (r14, r24),
    )


def test_criterion_10_energy_monotone(capsys, standing_run):
    # without forcing the discrete energy never increases
    drift = ver.energy_drift(standing_run)
    ok = drift <= 1e-10
    assert _announce(
        capsys, 10, "energy monotonicity", ok, "largest increase %.3g vs 1e-10" % drift
    )
