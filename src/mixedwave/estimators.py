"""A posteriori error estimators for the discrete mixed wave solution.

Three layers.  Spatial estimates bound the elliptic reconstruction error
at one time node from the strong residual, a gradient-defect term, the
tangential jumps of alpha sigma_h and its elementwise curl.  Temporal
estimates accumulate the interval sums driven by the C1 reconstruction
weight mu and the forcing defect f_bar - f.  The composite report sums
both families into node-wise displacement and stress bounds and, when
true errors are supplied, effectivity indices.  No estimator calls f:
f_bar^n at the quadrature and the step integrals of the forcing defect
are read from the run (Trajectory.fbar_quad, Trajectory.forcing_defect),
which took both from solver.forcing_blocks.

The displacement bound reads only the residual and gradient-defect part
(e1) of a spatial estimate; the jump and curl terms enter the stress
bound alone (e6n, e50).  So a spatial estimate forms jump and curl when
they are first read.  compose_report makes 3N+2 estimates, one per data
set: the N+1 nodes, and node 0 and its first difference again for the
initial terms, then the N first and N-1 second backward differences.
Only the nodes and the initial node form jump and curl, N+2 of them.
The report holds one node's data at a time.  Stacking r_2 and its
differences over all nodes raised its transient memory from 0.5 to
23 MB (RT0, 16 x 16 cells, N = 128) and was no faster: under a 1 MiB
mmap threshold each large temporary is mapped afresh and pays page
faults.

All time derivatives of node data (r_2, Sigma, U) are backward
differences of the stored node values, matching the discrete d_t
operator of the scheme.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .assembly import disp_l2_norm, disp_l2_norm_cellwise


class EstimatorError(Exception):
    pass


class MissingSeriesError(EstimatorError):
    pass


# ----------------------------------------------------------------------
# spatial estimates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialEstimate:
    """Per-cell spatial estimator ingredients at one time node.

    Each ingredient holds nonnegative per-cell values; the totals are
    sums of root-sum-squares of the ingredient arrays.  residual_low,
    residual_high and gradient are formed by spatial_estimate.  jump and
    curl are formed from `system` and `sigma`, the estimate's own copy of
    the stress coefficients, on first read: e1 does not read them.
    """

    residual_low: np.ndarray  # ||h^{l+1} r_2||_K
    residual_high: np.ndarray  # ||h r_2||_K
    gradient: np.ndarray  # ||h(alpha sigma + grad_h U)||_K
    system: object = field(repr=False)
    sigma: np.ndarray = field(repr=False)

    @cached_property
    def jump(self):
        """Edge jumps of alpha sigma, halved onto cells."""
        ops = self.system.estimator_ops
        return np.sqrt(ops.cell_jump @ (ops.jump @ self.sigma) ** 2)

    @cached_property
    def curl(self):
        """||h curl(alpha sigma)||_K."""
        h = self.system.space.mesh.h_cell
        return h * _block_norms(self.system.estimator_ops.curl @ self.sigma, len(h))

    @property
    def e1(self):
        """||h^{l+1} r_2|| + gradient-defect term."""
        return _rss(self.residual_low) + _rss(self.gradient)

    @property
    def e2(self):
        """||h r_2|| + jump term + curl term."""
        return _rss(self.residual_high) + _rss(self.jump) + _rss(self.curl)


def _rss(percell):
    return float(np.sqrt((percell ** 2).sum()))


def spatial_estimate(system, sigma_coeffs, r2_values, displacement):
    """Spatial estimator ingredients for one (sigma, r_2, U) data set.

    r2_values are the strong residual samples at the quadrature of
    system.space, shape (T, nq); sigma_coeffs and displacement are the
    coefficient vectors of Sigma and U.  The other terms are products of
    system.estimator_ops with those vectors: the gradient defect
    ||h(alpha sigma + grad_h U)||_K, one product with the stacked
    (sigma, U), and ||h curl(alpha sigma)||_K are h_K times block norms of
    the products, and the jump term is the root of cell_jump applied to
    the squared jump samples.  Jump and curl are formed when first read.
    """
    space, ops = system.space, system.estimator_ops
    h = space.mesh.h_cell
    r2_cell = disp_l2_norm_cellwise(space, np.asarray(r2_values, dtype=float))
    coeffs = np.concatenate([sigma_coeffs, displacement])
    return SpatialEstimate(
        residual_low=h ** (space.rt_index + 1) * r2_cell,
        residual_high=h * r2_cell,
        gradient=h * _block_norms(ops.defect @ coeffs, len(h)),
        system=system,
        sigma=coeffs[: space.n_stress],
    )


def _block_norms(values, n):
    """Euclidean norms of `values` in n equal consecutive blocks."""
    return np.sqrt((values.reshape(n, -1) ** 2).sum(axis=1))


# ----------------------------------------------------------------------
# strong residual data along a trajectory
# ----------------------------------------------------------------------

def r2_strong_values(traj, n):
    """Strong residual r_2^n = d2U^n + div Sigma^n - f_bar^n at quadrature.

    f_bar^n is the run's own sample (Trajectory.fbar_quad); f is not called.
    """
    space = traj.space
    r2 = space.disp_values(traj.d2U[n]) + space.div_values(traj.Sigma[n])
    if traj.fbar_quad is not None:
        r2 -= traj.fbar_quad[n]
    return r2


# ----------------------------------------------------------------------
# temporal estimates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TemporalEstimate:
    """Cumulative interval sums of the eight temporal estimator terms.

    Each array has one entry per time node (index 0 is zero); entry m is
    the sum over intervals 1..m, so every accumulator is nondecreasing.
    """

    grid: object
    e11: np.ndarray
    e12: np.ndarray
    e13: np.ndarray
    e14: np.ndarray
    e21: np.ndarray
    e22: np.ndarray
    e23: np.ndarray
    e24: np.ndarray


def temporal_estimate(traj):
    """Accumulate the temporal estimator terms over the whole trajectory.

    e11 and e21 carry the projection defect ||(I - P_h^j) d2U^j|| and the
    mesh-change part of the second family; both are identically zero on
    the fixed meshes this solver runs.  The data (r_2^j - div Sigma^j)
    is evaluated as d2U^j - f_bar^j, its algebraically identical strong
    form on a fixed mesh.  f_bar^j and the forcing defect
    int_{I_j} ||f_bar^j - f||, a 5-point Gauss rule in time, are read from
    the run under both forcing modes (Trajectory.fbar_quad and
    Trajectory.forcing_defect), so f is not called.
    """
    space = traj.space
    grid = traj.grid
    N = grid.num_steps
    k = grid.steps
    fbar, defect = traj.fbar_quad, traj.forcing_defect
    if fbar is None:  # f = 0
        fbar, defect = np.zeros((N + 1, 1, 1)), np.zeros(N + 1)

    names = ("e11", "e12", "e13", "e14", "e21", "e22", "e23", "e24")
    acc = {name: np.zeros(N + 1) for name in names}
    acc["e14"][1:] = defect[1:]
    acc["e24"][1:] = k * defect[1:]

    # D^j: samples of (r_2^j - div Sigma^j) = d2U^j - f_bar^j
    D_prev = space.disp_values(traj.d2U[0]) - fbar[0]
    dtD_prev = None
    inner_sum = 0.0  # running sum of the k^2/2, k^3/12 addends
    for j in range(1, N + 1):
        kj = k[j - 1]
        dt2 = space.disp_values(traj.d2U[j])
        dt2_norm = disp_l2_norm(space, dt2)

        # int |mu| = 3k/2 on each interval
        acc["e12"][j] = 1.5 * kj * dt2_norm
        acc["e22"][j] = kj ** 2 * dt2_norm

        D_j = dt2 - fbar[j]
        dtD = (D_j - D_prev) / kj
        addend = 0.5 * kj ** 2 * disp_l2_norm(space, dtD)
        if dtD_prev is not None:
            dt2D = (dtD - dtD_prev) / kj
            addend += kj ** 3 / 12.0 * disp_l2_norm(space, dt2D)
        acc["e13"][j] = addend
        acc["e23"][j] = kj * inner_sum
        inner_sum += addend
        D_prev, dtD_prev = D_j, dtD

    return TemporalEstimate(
        grid=grid, **{name: np.cumsum(acc[name]) for name in names}
    )


# ----------------------------------------------------------------------
# composite report
# ----------------------------------------------------------------------

_COMPONENT_NAMES = (
    "e2n",
    "e6n",
    "e3n",
    "e8n",
    "sum_k_e3",
    "sum_k_e8",
    "e11",
    "e12",
    "e13",
    "e14",
    "e21",
    "e22",
    "e23",
    "e24",
)


@dataclass
class EstimatorReport:
    """Node-wise estimator components and composite bounds.

    components maps term names to per-node arrays; bound_u and
    bound_sigma are the composite displacement and stress bounds at
    every node.  Initial terms (e10, e40, e50 and the initial true
    errors) are scalars.  scale_u and scale_sigma record the common
    factor applied to all estimator terms (1 for the unit policy).
    """

    grid: object
    constants: str
    e10: float
    e40: float
    e50: float
    err_u0: float
    err_ut0: float
    err_sigma0: float
    components: dict
    bound_u: np.ndarray
    bound_sigma: np.ndarray
    err_u: np.ndarray = None
    err_sigma: np.ndarray = None
    scale_u: float = 1.0
    scale_sigma: float = 1.0

    def effectivity_u(self):
        if self.err_u is None:
            raise MissingSeriesError("true displacement errors not registered")
        m = int(np.argmax(self.err_u))
        return float(self.bound_u[m] / self.err_u[m])

    def effectivity_sigma(self):
        if self.err_sigma is None:
            raise MissingSeriesError("true stress errors not registered")
        m = int(np.argmax(self.err_sigma))
        return float(self.bound_sigma[m] / self.err_sigma[m])


def compose_report(
    traj,
    A=None,
    constants="unit",
    temporal=None,
    err_u=None,
    err_sigma=None,
    initial_errors=(0.0, 0.0, 0.0),
    calibration=None,
):
    """Assemble the composite node-wise bounds from all estimator parts.

    The displacement bound at node m is
    err_u0 + s (e10 + e2n[m] + sum_{n<=m} k_n e3n + e21+e22+e23+e24 at m)
    and the stress bound is
    err_ut0 + err_sigma0 + s (e40 + e50 + e6n[m] + e7n[m]
    + sum k_n e8n + e11+e12+e13+e14 at m),
    with s = 1 under the unit constants policy and s = calibration
    (a pair of scales fit elsewhere) under "calibrated".  e7n equals e3n;
    the notation lists them separately but they are the same quantity.
    Every term is weighted by the alpha the run was assembled with
    (traj.system); A may only be None or that system's own coefficient.
    """
    system = traj.system
    if A is not None and A is not system.coefficient:
        raise EstimatorError(
            "A must be None or the coefficient the run was assembled with"
        )
    if constants not in ("unit", "calibrated"):
        raise EstimatorError("constants policy must be 'unit' or 'calibrated'")
    if constants == "calibrated" and calibration is None:
        raise MissingSeriesError("calibrated policy needs precomputed scales")
    space = traj.space
    grid = traj.grid
    N = grid.num_steps
    k = grid.steps
    if temporal is None:
        temporal = temporal_estimate(traj)

    # initial-node terms: e10 and e40 are the gradient-defect norms of
    # (Sigma^0, U^0) and their first-difference data; e50 is jump + curl
    # of Sigma^0
    se0 = spatial_estimate(system, traj.Sigma[0], r2_strong_values(traj, 0), traj.U[0])
    e10 = _rss(se0.gradient)
    e50 = _rss(se0.jump) + _rss(se0.curl)
    se_rate0 = spatial_estimate(
        system,
        (traj.Sigma[1] - traj.Sigma[0]) / k[0],
        np.zeros_like(space.quad_weights),
        traj.dtU[0],
    )
    e40 = _rss(se_rate0.gradient)

    # e3n and e8n estimate the first and second backward differences of
    # the node data (Sigma, r_2, U)
    comp = {name: np.zeros(N + 1) for name in _COMPONENT_NAMES}
    data = rate = None
    for m in range(N + 1):
        prev, prev_rate = data, rate
        data = (traj.Sigma[m], r2_strong_values(traj, m), traj.U[m])
        se = spatial_estimate(system, *data)
        comp["e2n"][m] = se.e1
        comp["e6n"][m] = se.e2
        if m >= 1:
            rate = [(x - y) / k[m - 1] for x, y in zip(data, prev)]
            comp["e3n"][m] = spatial_estimate(system, *rate).e1
        if m >= 2:
            rate2 = [(x - y) / k[m - 1] for x, y in zip(rate, prev_rate)]
            comp["e8n"][m] = spatial_estimate(system, *rate2).e1
    comp["sum_k_e3"][1:] = np.cumsum(k * comp["e3n"][1:])
    comp["sum_k_e8"][1:] = np.cumsum(k * comp["e8n"][1:])
    for name in ("e11", "e12", "e13", "e14", "e21", "e22", "e23", "e24"):
        comp[name] = getattr(temporal, name).copy()

    err_u0, err_ut0, err_sigma0 = initial_errors
    sum_u, sum_sigma = _estimator_sums(e10, e40, e50, comp)
    report = EstimatorReport(
        grid=grid,
        constants="unit",
        e10=e10,
        e40=e40,
        e50=e50,
        err_u0=err_u0,
        err_ut0=err_ut0,
        err_sigma0=err_sigma0,
        components=comp,
        bound_u=err_u0 + sum_u,
        bound_sigma=err_ut0 + err_sigma0 + sum_sigma,
        err_u=None if err_u is None else np.asarray(err_u, dtype=float),
        err_sigma=None if err_sigma is None else np.asarray(err_sigma, dtype=float),
    )
    return report if constants == "unit" else calibrated(report, calibration)


def _estimator_sums(e10, e40, e50, comp):
    """Estimator parts of the displacement and stress bounds, per node."""
    sum_u = (
        e10
        + comp["e2n"]
        + comp["sum_k_e3"]
        + comp["e21"]
        + comp["e22"]
        + comp["e23"]
        + comp["e24"]
    )
    sum_sigma = (
        e40
        + e50
        + comp["e6n"]
        + comp["e3n"]
        + comp["sum_k_e8"]
        + comp["e11"]
        + comp["e12"]
        + comp["e13"]
        + comp["e14"]
    )
    return sum_u, sum_sigma


def calibrated(report, scales):
    """The report under the calibrated policy with scales (s_u, s_sigma).

    Only the bounds change: the estimator sums are rebuilt from the
    stored components and multiplied by the scales.
    """
    s_u, s_sigma = scales
    sum_u, sum_sigma = _estimator_sums(
        report.e10, report.e40, report.e50, report.components
    )
    return replace(
        report,
        constants="calibrated",
        bound_u=report.err_u0 + s_u * sum_u,
        bound_sigma=report.err_ut0 + report.err_sigma0 + s_sigma * sum_sigma,
        scale_u=s_u,
        scale_sigma=s_sigma,
    )


def calibrate_scales(report, target=2.0):
    """Uniform scales making bound = target * error at this report's level.

    Fit once on the coarsest level of a study, then frozen for finer
    levels.  Returns (s_u, s_sigma).
    """
    if report.err_u is None or report.err_sigma is None:
        raise MissingSeriesError("calibration needs true errors")
    mu = int(np.argmax(report.err_u))
    ms = int(np.argmax(report.err_sigma))
    est_u = (report.bound_u[mu] - report.err_u0) / report.scale_u
    est_s = (
        report.bound_sigma[ms] - report.err_ut0 - report.err_sigma0
    ) / report.scale_sigma
    s_u = max((target * report.err_u[mu] - report.err_u0) / est_u, 1e-12)
    s_sigma = max(
        (target * report.err_sigma[ms] - report.err_ut0 - report.err_sigma0) / est_s,
        1e-12,
    )
    return s_u, s_sigma


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_columns(path, header, columns):
    """Write equal-length columns as CSV under a header row.

    The first column is written as integers and the others with 17
    significant digits, so every float reads back bit-identically.
    """
    np.savetxt(
        path,
        np.column_stack(columns),
        fmt=["%d"] + ["%.17g"] * (len(columns) - 1),
        delimiter=",",
        header=",".join(header),
        comments="",
    )


def write_report_csv(report, path):
    """One row per time node: components, bounds, errors, effectivity.

    The effectivity is inf at a node with zero error.
    """
    names = list(_COMPONENT_NAMES)
    nodes = report.grid.nodes
    header = ["n", "t_n"] + names + ["bound_u", "bound_sigma"]
    columns = [np.arange(len(nodes)), nodes] + [report.components[n] for n in names]
    columns += [report.bound_u, report.bound_sigma]
    if report.err_u is not None:
        header += ["err_u", "err_sigma", "eff_u", "eff_sigma"]
        errors = (report.err_u, report.err_sigma)
        columns += errors
        for bound, err in zip((report.bound_u, report.bound_sigma), errors):
            eff = np.full(len(err), np.inf)
            columns.append(np.divide(bound, err, out=eff, where=err > 0))
    write_columns(path, header, columns)


def write_cellwise_csv(estimate, mesh, path):
    """Per-cell spatial map of one node's estimator ingredients."""
    names = ["residual_low", "residual_high", "gradient", "jump", "curl"]
    write_columns(
        path,
        ["cell", "x", "y"] + names,
        [np.arange(mesh.num_cells), *mesh.cell_centroids().T]
        + [getattr(estimate, name) for name in names],
    )
