"""Composite a posteriori bounds for a variable-coefficient run.

Solves u_tt - div(A grad u) = f with A = diag(1 + x/2, 1 + y/2) and a
manufactured exact solution, assembles the node-wise estimator report
under the unit-constant policy and prints bound against true error.
"""

import numpy as np

from mixedwave import estimators as est
from mixedwave import verification as ver

problem = ver.variable_coefficient()
traj = ver.solve_problem(problem, n=12, N=30)

err_u, err_sigma = ver.true_error(traj, problem)
report = est.compose_report(
    traj,
    err_u=err_u,
    err_sigma=err_sigma,
    initial_errors=ver.initial_errors(traj, problem),
)

print("  n    bound_u      err_u      bound_sigma   err_sigma")
for n in range(0, traj.grid.num_steps + 1, 5):
    print(
        "{:>3d}  {:10.4e}  {:10.4e}  {:11.4e}  {:10.4e}".format(
            n, report.bound_u[n], err_u[n], report.bound_sigma[n], err_sigma[n]
        )
    )

print()
print("effectivity (displacement, at the worst node): {:.2f}".format(
    report.effectivity_u()
))
print("effectivity (stress, at the worst node):       {:.2f}".format(
    report.effectivity_sigma()
))

est.write_report_csv(report, "report_demo.csv")
print("node-wise report written to report_demo.csv")
