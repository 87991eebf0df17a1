"""Per-cell spatial estimator map at the final time of a forced run.

Writes the cellwise ingredients to CSV and, when matplotlib is
available, saves a scatter plot of the per-cell gradient-defect term.
"""

import numpy as np

from mixedwave import estimators as est
from mixedwave import verification as ver

problem = ver.forced_oscillation()
traj = ver.solve_problem(problem, n=16, N=40, forcing_mode="average")

final = traj.grid.num_steps
se = est.spatial_estimate(
    traj.system,
    traj.Sigma[final],
    est.r2_strong_values(traj, final),
    traj.U[final],
)
est.write_cellwise_csv(se, traj.space.mesh, "cells_demo.csv")
print("cellwise map written to cells_demo.csv")
print("totals: e1 = {:.4e}, e2 = {:.4e}".format(se.e1, se.e2))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    cx, cy = traj.space.mesh.cell_centroids().T
    fig, ax = plt.subplots(figsize=(5, 4))
    sc = ax.scatter(cx, cy, c=se.gradient, s=18, cmap="viridis")
    fig.colorbar(sc, ax=ax, label="per-cell gradient defect")
    ax.set_aspect("equal")
    ax.set_title("spatial estimator map at t = {:.2f}".format(traj.grid.nodes[final]))
    fig.tight_layout()
    fig.savefig("cells_demo.png", dpi=120)
    print("plot saved to cells_demo.png")
