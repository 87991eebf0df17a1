"""Golden values of the composite bounds and every report component.

`golden_reports.json` holds bound_u, bound_sigma, the 14 component
series, the true errors and the calibrated bounds of four small runs.
The first two were computed before the estimator refactor that removed
the gradient recovery and folded the rate estimates into
compose_report; the third (variable coefficient, RT1), the only one that
uses the 8-dof local basis, the finite-difference curl term and the edge
jumps together, before the estimators became sparse operators.  Any
change to the estimator arithmetic beyond round-off shows up here.

The fourth, varcoef-rt0-graded, runs on a graded grid instead of
uniform_grid: 8 steps of 1/64, 6 of 1/32 and 3 of 1/16 to T = 0.5,
under "average" forcing.  Its case lists the steps, and the test builds
that run itself.  On a uniform grid every k_n is the same, so an
off-by-one in a step index (k[m - 1] in compose_report,
temporal_estimate and the backward differences) or a step solved with
the factor of another size cannot show; here the steps are three sizes
a factor 2 apart and change size twice.  The steps are dyadic, so the
nodes and their differences are exact, and the values do not depend on
how the grid groups nearly equal steps.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mixedwave import cli, solver
from mixedwave import estimators as est
from mixedwave import verification as ver
from mixedwave.assembly import assemble_system
from mixedwave.mesh import unit_square_mesh
from mixedwave.spaces import MixedSpace

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
RTOL = 1e-12


def _close(actual, expected):
    np.testing.assert_allclose(actual, np.array(expected), rtol=RTOL, atol=0.0)


def _golden_run(problem, c):
    """The run of case c: on uniform_grid(T, N), or on the nodes of c["steps"]."""
    if "steps" not in c:
        return ver.solve_problem(
            problem, c["n"], c["N"], rt_index=c["rt_index"], forcing_mode=c["forcing_mode"]
        )
    space = MixedSpace(unit_square_mesh(c["n"]), c["rt_index"])
    grid = solver.TimeGrid(np.concatenate([[0.0], np.cumsum(c["steps"])]))
    return solver.run(
        assemble_system(space, problem.A), problem.f, problem.u0, problem.u1, grid,
        forcing_mode=c["forcing_mode"],
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_values(name):
    g = GOLDEN[name]
    c = g["case"]
    problem = ver.PROBLEMS[c["problem"]]()
    traj = _golden_run(problem, c)
    err_u, err_sigma = ver.true_error(traj, problem)
    initial = ver.initial_errors(traj, problem)
    _close(err_u, g["err_u"])
    _close(err_sigma, g["err_sigma"])
    _close(initial, g["initial_errors"])

    report = est.compose_report(
        traj, A=problem.A, err_u=err_u, err_sigma=err_sigma, initial_errors=initial
    )
    assert sorted(report.components) == sorted(g["components"])
    for key, series in g["components"].items():
        _close(report.components[key], series)
    _close(report.bound_u, g["bound_u"])
    _close(report.bound_sigma, g["bound_sigma"])

    calibrated = est.compose_report(
        traj, A=problem.A, constants="calibrated", err_u=err_u, err_sigma=err_sigma,
        initial_errors=initial, calibration=est.calibrate_scales(report),
    )
    _close(calibrated.bound_u, g["calibrated_bound_u"])
    _close(calibrated.bound_sigma, g["calibrated_bound_sigma"])


def test_calibrated_cli_report_matches_golden_values(tmp_path):
    g = GOLDEN["varcoef-rt0"]
    c = g["case"]
    out = tmp_path / "est"
    rc = cli.main([
        "estimate", "--problem", c["problem"], "--mesh-n", str(c["n"]),
        "--steps", str(c["N"]), "--constants", "calibrated", "--out", str(out),
    ])
    assert rc == 0
    table = np.genfromtxt(out / "report.csv", delimiter=",", names=True)
    _close(table["bound_u"], g["calibrated_bound_u"])
    _close(table["bound_sigma"], g["calibrated_bound_sigma"])
    for key, series in g["components"].items():
        _close(table[key], series)
