"""Backward-difference time stepping of the fully discrete mixed scheme.

Each step solves the coupled mixed system for (U^n, Sigma^n) obtained by
eliminating the second backward difference
d2U^n = (U^n - U^{n-1} - k_n dU^{n-1}) / k_n^2.  The first step uses
dU^0 = P_h u1 and U^0 = P_h u0; the initial stress Sigma^0 solves
(alpha Sigma^0, v) = (U^0, div v), which makes the first discrete
equation hold at n = 0 as well.

A step and the elliptic reconstruction solve one mixed system, of
weight 1 / k_n^2 and 0, with one hybridized factor (_Condensed) per
weight.  TimeGrid decides the step sizes k_n: steps that differ only by
the rounding of their nodes get one k_n, and so one weight and one
factor.
"""

import os
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .assembly import SaddleSystem, _scatter, load_of_values
from .spaces import _cell_rows, l2_project_scalar

# 5-point Gauss rule used for all time integrals
_TIME_PTS, _TIME_WTS = quadrature.segment_rule(9)


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    pass


class ToleranceNotMetError(SolverError):
    pass


class GridError(SolverError):
    pass


# Node differences within this relative tolerance are one step size.
# Float nodes carry rounding of about eps |t_n|, so the N steps of one
# size in np.linspace nodes spread by under N eps (5.5e-13 for
# N <= 3000): within 1e-9 up to about 4.5e6 steps.  Sizes a grid means
# to differ are apart by far more.
_STEP_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing finite time nodes t_0 = 0 < ... < t_N = T and
    the step sizes of the scheme, read-only and fixed at construction.

    The grid decides which steps are one step: node differences
    t_n - t_{n-1} within _STEP_RTOL relative of the smallest in their
    group are grouped, and a group's size is the difference of its first
    step.  sizes holds the distinct sizes, ascending, and size_index[n - 1]
    the one step n takes; steps[n - 1] = sizes[size_index[n - 1]] is the
    k_n every reader uses.  The nodes are kept as given.  Grids compare
    and hash by identity.
    """

    nodes: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False)
    size_index: np.ndarray = field(init=False, repr=False)
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.nodes, dtype=float)
        d = np.diff(t)
        if len(t) < 2 or t[0] != 0.0 or not np.all(d > 0.0):
            raise GridError("time nodes must start at 0 and strictly increase")
        if not np.isfinite(t[-1]):
            raise GridError("time nodes must be finite")
        # groups in ascending order, each from its smallest step up
        order = np.argsort(d)
        ascending = d[order]
        index = np.empty(len(d), dtype=int)
        first = []
        start = 0
        while start < len(d):
            stop = int(np.searchsorted(ascending, ascending[start] * (1.0 + _STEP_RTOL), "right"))
            index[order[start:stop]] = len(first)
            first.append(order[start:stop].min())
            start = stop
        sizes = d[first]
        arrays = {"nodes": t, "sizes": sizes, "size_index": index, "steps": sizes[index]}
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def num_steps(self):
        return len(self.nodes) - 1

    @property
    def final_time(self):
        return float(self.nodes[-1])

    def interval_index(self, t):
        """n with t in (t_{n-1}, t_n]; t = 0 maps to interval 1."""
        if t < 0.0 or t > self.nodes[-1] + 1e-14:
            raise GridError("time {} outside [0, T]".format(t))
        n = int(np.searchsorted(self.nodes, t, side="left"))
        return max(1, min(n, self.num_steps))

    def interval(self, n):
        """(t_{n-1}, t_n) of step n; node 0 is the empty step (0, 0)."""
        return self.nodes[max(n - 1, 0)], self.nodes[n]

    def backward_difference(self, rows):
        """(rows[n] - rows[n - 1]) / k_n for n = 1, ..., N: one row per step,
        from the (N + 1, m) node rows `rows`."""
        return np.diff(rows, axis=0) / self.steps[:, None]


def uniform_grid(T, N):
    """N steps of the one size k = T / N: nodes n k, with t_N = T."""
    return TimeGrid(np.linspace(0.0, T, N + 1))


@dataclass
class Trajectory:
    """Discrete states of one run on a fixed mesh.

    U, Sigma, dtU hold one coefficient row per time node; f_bar holds the
    load vectors (f_bar^n, w_h) actually used (row 0 is the load at t=0).
    forcing_mode is "pointwise" or "average" (see forcing_blocks).  The
    run keeps the forcing data every estimator reads, so none calls f:
    fbar_quad holds f_bar^n at space.quad_points, shape (N+1, T, nq), and
    forcing_defect the step integrals int_{I_n} ||f_bar^n - f|| of the
    5-point Gauss rule (entry 0 is zero), under both modes, from the same
    f calls as f_bar^n.  Both are None when f is None.
    """

    grid: TimeGrid
    system: SaddleSystem
    U: np.ndarray
    Sigma: np.ndarray
    dtU: np.ndarray
    f_bar: np.ndarray
    forcing_mode: str = "pointwise"
    f: object = field(default=None, repr=False)
    fbar_quad: np.ndarray = field(default=None, repr=False)
    forcing_defect: np.ndarray = None

    @property
    def space(self):
        return self.system.space

    @cached_property
    def d2U(self):
        """Second differences d2U^n, one coefficient row per node.

        Row n >= 1 is the backward difference (dtU^n - dtU^{n-1}) / k_n
        of the scheme.  The scheme leaves row 0 undefined; it holds the
        discrete initial acceleration (initial_acceleration), so the
        second residual vanishes on the discrete space at n = 0 too.
        Built from dtU on first use and kept.
        """
        d2 = np.empty_like(self.dtU)
        d2[0] = initial_acceleration(self)
        d2[1:] = self.grid.backward_difference(self.dtU)
        return d2

    def energy(self, n):
        """Discrete energy ||dtU^n||^2 + ||Sigma^n||^2_{A^-1}."""
        s = self.system
        return float(
            self.dtU[n] @ (s.M_u @ self.dtU[n])
            + self.Sigma[n] @ (s.M_sigma @ self.Sigma[n])
        )


@dataclass(frozen=True)
class _Condensed:
    """The mixed system of weight c condensed onto interior-edge multipliers.

    The mixed system is (alpha sigma, v) - (u, div v) = 0 and
    (div sigma, w) + c (u, w) = (g, w): a time step has c = 1 / k^2 and
    the elliptic reconstruction c = 0.  Cell K keeps its own copy
    x_K = (sigma_K, u_K) of its local dofs and solves
    L_K x_K + G_K^T lam = (0, g_K), L_K = [[A_K, -B_K^T], [B_K, c M_K]]
    from its stress, divergence and displacement-mass blocks and g_K its
    load; L_K is invertible for c >= 0.  lam has l + 1 multipliers per
    interior edge, and G_K picks the local dofs on interior edges, +1 on
    the left cell of the edge (Mesh.edge_cells) and -1 on the right one,
    so sum_K G_K x_K = 0 makes the two copies of an edge dof equal.
    Eliminating x_K leaves the SPD system
    S lam = sum_K G_K L_K^-1 (0, g_K), S = sum_K G_K L_K^-1 G_K^T
    (Arnold-Brezzi hybridization).

    lu : SuperLU of S
    rhs_map : (n_mult, n_disp) sparse, g -> sum_K G_K L_K^-1 (0, g_K)
    lam_map, load_map : (n_stress + n_disp, n_mult) and
        (n_stress + n_disp, n_disp) sparse; the stacked (sigma, u) is
        lam_map lam + load_map g, with every stress dof read from one
        cell's x_K
    """

    lu: object
    rhs_map: sp.csr_matrix
    lam_map: sp.csr_matrix
    load_map: sp.csr_matrix

    def recover(self, lam, g):
        """The stacked (sigma, u) of multipliers lam and loads g (columns alike)."""
        x = self.lam_map @ lam
        x += self.load_map @ g
        return x


def _condense(system, c):
    """The _Condensed form of `system` for weight c, built on first use and
    kept in system._factor_cache under c itself.  The steps of one size
    share it because TimeGrid gives them one k_n, and so one c = 1 / k_n^2."""
    if c in system._factor_cache:
        return system._factor_cache[c]
    space = system.space
    mesh = space.mesh
    T, nl, nd = mesh.num_cells, space.n_loc_stress, space.n_loc_disp
    L = np.empty((T, nl + nd, nl + nd))
    L[:, :nl, :nl] = system.stress_blocks
    L[:, :nl, nl:] = -np.swapaxes(system.div_blocks, 1, 2)
    L[:, nl:, :nl] = system.div_blocks
    L[:, nl:, nl:] = c * system.disp_blocks
    try:
        Linv = np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc

    # a cell's n_loc_edge edge dofs come first; the multiplier slot of a
    # stress dof is its rank among the interior-edge dofs, and slot 0
    # stands for every other dof and is dropped from every map
    ne = space.n_loc_edge
    edge_dofs = space.cell_stress_dofs[:, :ne]
    entity = space.stress_dof_entity
    interior = np.r_[~mesh.boundary_edge, np.zeros(T, dtype=bool)][entity]
    slot = np.where(interior, np.cumsum(interior), 0)[edge_dofs]
    sign = np.where(mesh.edge_cells[entity[edge_dofs], 0] == np.arange(T)[:, None], 1.0, -1.0)
    n = int(interior.sum()) + 1  # multipliers and the boundary's zero
    block = sign[:, :, None] * sign[:, None, :] * Linv[:, :ne, :ne]
    S = _scatter(block, slot, slot, (n, n))[1:, 1:].tocsc()
    try:
        lu = spla.splu(S, permc_spec="COLAMD", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc

    # owner: the row of the cell copies x_K, stacked cell by cell, that
    # each stress, then displacement, dof is read from
    disp, n_d = space.cell_disp_dofs, space.n_disp
    local = (nl + nd) * np.arange(T)[:, None]
    owner = np.empty(space.n_stress + n_d, dtype=int)
    owner[space.cell_stress_dofs] = local + np.arange(nl)
    owner[space.n_stress + disp] = local + np.arange(nl, nl + nd)
    system._factor_cache[c] = _Condensed(
        lu=lu,
        rhs_map=_scatter(sign[:, :, None] * Linv[:, :ne, nl:], slot, disp, (n, n_d))[1:],
        lam_map=_cell_rows(-sign[:, None, :] * Linv[:, :, :ne], slot, n)[owner][:, 1:],
        load_map=_cell_rows(Linv[:, :, nl:], disp, n_d)[owner],
    )
    return system._factor_cache[c]


# entries of the largest per-block temporary, (n_stress + n_disp, block
# size): 1 MiB of float64
_BLOCK_ENTRIES = 1 << 17


def _node_blocks(m, rows, least=1):
    """Slices of range(m), >= `least` wide, whose (rows, width) fit _BLOCK_ENTRIES."""
    size = max(least, _BLOCK_ENTRIES // max(rows, 1))
    return [slice(i, i + size) for i in range(0, m, size)]


def solve_mixed(system, c, rhs_disp):
    """Solve the mixed system of weight c >= 0 (see _Condensed).

    Finds (sigma, u) with (alpha sigma, v) - (u, div v) = 0 and
    (div sigma, w) + c (u, w) = (g, w) for all test functions; `rhs_disp`
    is the load vector (g, w) over the displacement basis, or an
    (m, n_disp) stack of them.  Returns C-contiguous (u, sigma)
    coefficient rows, stacked like `rhs_disp`.  The multipliers come from
    the one SPD factor of weight c (kept in system._factor_cache) in
    blocks of 8 or more columns, as SuperLU solves single columns at
    twice the cost.  (sigma, u) are then recovered and the residuals of
    the mixed equations checked (_check_mixed), raising
    ToleranceNotMetError above 1e-10 relative, in sub-blocks whose
    temporaries hold at most _BLOCK_ENTRIES entries (1 MiB) each.
    Besides the factor and its maps, the solve holds only its outputs and
    one block's temporaries.
    """
    cond = _condense(system, c)
    n_s, n_d = system.space.n_stress, system.space.n_disp
    rhs = np.asarray(rhs_disp, dtype=float)
    loads = rhs.reshape(-1, n_d)
    m = len(loads)
    u, sigma = np.empty((m, n_d)), np.empty((m, n_s))
    for wide in _node_blocks(m, cond.rhs_map.shape[0], least=8):
        lams = cond.lu.solve(cond.rhs_map @ loads[wide].T)
        if not np.isfinite(lams).all():
            raise SingularSystemError("solution contains non-finite entries")
        for k in _node_blocks(lams.shape[1], n_s + n_d):
            g = loads[wide][k].T
            x = cond.recover(lams[:, k], g)  # (n_s + n_disp, block size)
            _check_mixed(system, c, x[:n_s], x[n_s:], g)
            sigma[wide][k], u[wide][k] = x[:n_s].T, x[n_s:].T
    if rhs.ndim == 1:
        return u[0], sigma[0]
    return u, sigma


def _max_abs(a):
    """Largest |a| down each column, reduced along rows of one transposed copy."""
    t = a.T.copy()
    return np.maximum(t.max(axis=1), -t.min(axis=1))


def _check_mixed(system, c, sigma, u, rhs):
    """Raise unless the columns of (sigma, u) solve the mixed equations to 1e-10;
    c is one weight or an array of one weight per column."""
    r1 = system.M_sigma @ sigma
    scale = np.maximum(_max_abs(r1), _max_abs(rhs))
    r1 -= system.B.T @ u
    r2 = system.B @ sigma
    r2 += c * (system.M_u @ u)
    r2 -= rhs
    if not np.all(np.maximum(_max_abs(r1), _max_abs(r2)) <= 1e-10 * scale):
        raise ToleranceNotMetError("algebraic residual exceeds 1e-10 relative")


def _check_steps(system, grid, U, Sigma, dtU, f_bar):
    """_check_mixed of each step n >= 1 at its weight 1 / k_n^2, in node blocks,
    with the step's load g^n formed again from the states it kept."""
    n_s, n_d = system.space.n_stress, system.space.n_disp
    for b in _node_blocks(grid.num_steps, n_s + n_d):
        k = grid.steps[b]
        prev = slice(b.start, b.start + len(k))
        new = slice(prev.start + 1, prev.stop + 1)
        g = f_bar[new].T + system.M_u @ (U[prev] + k[:, None] * dtU[prev]).T / k ** 2
        _check_mixed(system, 1.0 / k ** 2, Sigma[new].T, U[new].T, g)


def _checked(matrix, x, rhs, what):
    """x, once matrix @ x = rhs is checked to hold to 1e-10 relative."""
    Mx = matrix @ x
    scale = max(np.abs(Mx).max(initial=0.0), np.abs(rhs).max(initial=0.0), 1e-300)
    if not np.abs(Mx - rhs).max(initial=0.0) <= 1e-10 * scale:
        raise ToleranceNotMetError("{} residual exceeds 1e-10 relative".format(what))
    return x


def initial_stress(system, U0):
    """Sigma^0 from (alpha Sigma^0, v) = (U^0, div v) for all v_h.

    Residuals above 1e-10 relative raise ToleranceNotMetError, as in run.
    """
    try:
        lu = spla.splu(system.M_sigma.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    rhs = system.B.T @ U0
    return _checked(system.M_sigma, lu.solve(rhs), rhs, "initial stress")


def initial_acceleration(traj):
    """Discrete acceleration at t = 0: solves M_u a = F^0 - B Sigma^0.

    The scheme leaves the second difference at node 0 undefined; this is
    the value the spatially discrete equation assigns at t = 0, and it
    makes the second residual vanish on the discrete space at n = 0.
    M_u is block diagonal: one batched solve of its cell blocks.  Like
    initial_stress, it raises ToleranceNotMetError when the solve leaves
    a residual above 1e-10 relative.
    """
    s = traj.system
    rhs = traj.f_bar[0] - s.B @ traj.Sigma[0]
    dofs = s.space.cell_disp_dofs
    a = np.empty_like(rhs)
    a[dofs] = np.linalg.solve(s.disp_blocks, rhs[dofs][..., None])[..., 0]
    return _checked(s.M_u, a, rhs, "initial acceleration")


def forcing_blocks(space, f, grid, forcing_mode, defect=False):
    """f_bar^n of every node of `grid` at space.quad_points, in node blocks.

    f_bar^n is f(., t_n) under "pointwise" and, under "average", the
    5-point Gauss mean of f over the step (t_{n-1}, t_n], at the times
    t_{n-1} + tau (t_n - t_{n-1}) and with the weights summed in the
    rule's order; node 0 takes f(., 0) under both.  Returns an iterator
    of (b, fbar, step_defect), b a slice of the nodes and fbar of shape
    (m, T, nq).  A block is one f call: its times, of shape (M, 1, 1),
    broadcast against the (T, nq) points, so f must accept an array t
    that broadcasts against x; a time-independent f may return x's
    shape.  The stack of samples holds at most _BLOCK_ENTRIES entries
    unless one node's alone is larger.  With `defect`, step_defect holds
    int_{I_n} ||f_bar^n - f|| of the Gauss rule in time (0 at node 0),
    for which "pointwise" samples the Gauss times too; otherwise it is
    None.  f = None yields no block.  The mode is checked on the call.
    """
    if forcing_mode not in ("pointwise", "average"):
        raise SolverError("forcing_mode must be 'pointwise' or 'average'")
    if f is None:
        return iter(())
    x, y = space.quad_points[..., 0], space.quad_points[..., 1]
    shape = space.quad_weights.shape
    t = grid.nodes
    t_prev = np.r_[0.0, t[:-1]]
    k = np.r_[0.0, grid.steps]
    average = forcing_mode == "average"
    gauss = average or defect
    # rows of times per node: t_n under "pointwise", then the Gauss times
    rows = (not average) + 5 * gauss

    def block(b):
        times = [] if average else [t[b]]
        if gauss:
            times.extend(t_prev[b] + _TIME_PTS[:, None] * (t[b] - t_prev[b]))
        times = np.array(times)
        vals = np.asarray(f(x, y, times.reshape(-1, 1, 1)), dtype=float)
        vals = np.broadcast_to(vals, (times.size,) + shape).reshape(times.shape + shape)
        if average:
            fbar = sum(w * fs for w, fs in zip(_TIME_WTS, vals))
            if b.start == 0:
                fbar[0] = vals[0, 0]
        else:
            fbar = vals[0]
        if not defect:
            return b, fbar, None
        norms = np.sqrt(np.einsum("tq,jmtq->jm", space.quad_weights, (fbar - vals[-5:]) ** 2))
        return b, fbar, sum(w * k[b] * norm for w, norm in zip(_TIME_WTS, norms))

    return map(block, _node_blocks(grid.num_steps + 1, rows * space.quad_weights.size))


def run(system, f, u0, u1, grid, forcing_mode="pointwise"):
    """Run the fully discrete scheme over `grid`; returns a Trajectory.

    f_bar^n and the forcing defect come from forcing_blocks, one f call
    per node block (see Trajectory for what the run keeps of them).  Step
    n is four sparse products and one triangular solve: its load g =
    f_bar^n + M_u (U^{n-1} + k_n dtU^{n-1}) / k_n^2, the multipliers from
    the factor of weight 1 / k_n^2 (non-finite ones raise
    SingularSystemError) and the recovery of (Sigma^n, U^n).  There is
    one factor per entry of grid.sizes, and step n takes the one
    grid.size_index gives it.  _check_steps checks all steps after the
    loop.
    """
    space = system.space
    N = grid.num_steps
    f_bar = np.zeros((N + 1, space.n_disp))
    fbar_quad = defect = None
    if f is not None:
        fbar_quad = np.empty((N + 1,) + space.quad_weights.shape)
        defect = np.empty(N + 1)
    for b, fbar, step_defect in forcing_blocks(space, f, grid, forcing_mode, defect=True):
        fbar_quad[b], defect[b] = fbar, step_defect
        f_bar[b] = load_of_values(space, fbar)

    U = np.zeros((N + 1, space.n_disp))
    Sigma = np.zeros((N + 1, space.n_stress))
    dtU = np.zeros((N + 1, space.n_disp))
    U[0] = l2_project_scalar(space, u0)
    dtU[0] = l2_project_scalar(space, u1)
    Sigma[0] = initial_stress(system, U[0])
    n_s, M_u = space.n_stress, system.M_u
    factors = [_condense(system, 1.0 / k ** 2) for k in grid.sizes]
    for n in range(1, N + 1):
        k = grid.steps[n - 1]
        cond = factors[grid.size_index[n - 1]]
        g = f_bar[n] + M_u @ (U[n - 1] + k * dtU[n - 1]) / k ** 2
        lam = cond.lu.solve(cond.rhs_map @ g)
        if not np.isfinite(lam).all():
            raise SingularSystemError("step {}: non-finite multipliers".format(n))
        x = cond.recover(lam, g)
        Sigma[n], U[n] = x[:n_s], x[n_s:]
        dtU[n] = (U[n] - U[n - 1]) / k
    _check_steps(system, grid, U, Sigma, dtU, f_bar)
    return Trajectory(
        grid=grid,
        system=system,
        U=U,
        Sigma=Sigma,
        dtU=dtU,
        f_bar=f_bar,
        forcing_mode=forcing_mode,
        f=f,
        fbar_quad=fbar_quad,
        forcing_defect=defect,
    )


def residual_functionals(traj, n):
    """Discrete residuals (r1^n over V_h basis, r2^n over W_h basis).

    Both vanish identically for states produced by the scheme; r2 is
    defined for n >= 1, r1 also at n = 0.
    """
    s = traj.system
    r1 = s.M_sigma @ traj.Sigma[n] - s.B.T @ traj.U[n]
    if n == 0:
        return r1, None
    r2 = s.M_u @ traj.d2U[n] + s.B @ traj.Sigma[n] - traj.f_bar[n]
    return r1, r2


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

_MAGIC = b"MWSTATE1"


def save_trajectory(traj, directory):
    """Write grid.csv and per-node state_<n>.bin files.

    Binary layout (little-endian): 8-byte magic ``MWSTATE1``, three
    int64 counts (n_disp, n_stress, node index), then the U, Sigma and
    dtU coefficient blocks as float64.  Each file is written beside its
    final name and renamed into place.
    """
    os.makedirs(directory, exist_ok=True)
    rows = ["n,t_n,k_n\n"]
    for n, t in enumerate(traj.grid.nodes):
        k = 0.0 if n == 0 else traj.grid.steps[n - 1]
        rows.append("{},{:.17g},{:.17g}\n".format(n, t, k))
    _write_replacing(os.path.join(directory, "grid.csv"), "".join(rows).encode())
    nd, ns = traj.space.n_disp, traj.space.n_stress
    for n in range(traj.grid.num_steps + 1):
        blocks = [a[n].astype("<f8").tobytes() for a in (traj.U, traj.Sigma, traj.dtU)]
        _write_replacing(
            os.path.join(directory, "state_{}.bin".format(n)),
            b"".join([_MAGIC, struct.pack("<qqq", nd, ns, n)] + blocks),
        )


def _write_replacing(path, data):
    """Write `data` to a temporary file beside `path`, then rename it onto
    `path`, so a failed write never leaves a short file under that name."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, size, path):
    data = fh.read(size)
    if len(data) != size:
        raise SolverError(
            "{} is truncated: expected {} more bytes, got {}".format(
                path, size, len(data)
            )
        )
    return data


def load_states(directory):
    """Read back (nodes, U, Sigma, dtU) written by save_trajectory.

    Raises SolverError when grid.csv cannot be parsed, or a row's n is
    not its index or its k_n not within TimeGrid's tolerance of the step
    k_n that TimeGrid gives its nodes (0 on row 0), naming the line, or
    its nodes fail TimeGrid's check; when the state files are
    not exactly state_0.bin ... state_N.bin for its N + 1 rows; when a
    state file is truncated, carries trailing bytes, or disagrees with
    the first file on the block sizes.
    """
    path = os.path.join(directory, "grid.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["n,t_n,k_n"]:
        raise SolverError("{} line 1: expected the header n,t_n,k_n".format(path))
    nodes, steps = [], []
    for n, line in enumerate(lines[1:]):
        where = "{} line {}".format(path, n + 2)
        try:
            index, t, k = line.split(",")
            index, t, k = int(index), float(t), float(k)
        except ValueError:
            raise SolverError("{}: expected n,t_n,k_n, got {!r}".format(where, line)) from None
        if index != n:
            raise SolverError("{}: n is {}, expected {}".format(where, index, n))
        nodes.append(t)
        steps.append(k)
    try:
        grid = TimeGrid(nodes)
    except GridError as exc:
        raise GridError("{}: {}".format(path, exc)) from None
    nodes = grid.nodes
    for n, (k, step) in enumerate(zip(steps, np.r_[0.0, grid.steps])):
        if abs(k - step) > _STEP_RTOL * step:
            raise SolverError("{} line {}: k_n is {!r}, but the grid's step is {!r}".format(
                path, n + 2, k, step))
    expected = {"state_{}.bin".format(n) for n in range(len(nodes))}
    extra = sorted(
        name for name in os.listdir(directory)
        if re.fullmatch(r"state_\d+\.bin", name) and name not in expected
    )
    if extra:
        raise SolverError("{} has no row in {}".format(os.path.join(directory, extra[0]), path))
    U, Sigma, dtU = [], [], []
    sizes = None
    for n in range(len(nodes)):
        path = os.path.join(directory, "state_{}.bin".format(n))
        if not os.path.isfile(path):
            raise SolverError("{} is missing: grid.csv has {} rows".format(path, len(nodes)))
        with open(path, "rb") as fh:
            if fh.read(8) != _MAGIC:
                raise SolverError("bad magic in {}".format(path))
            nd, ns, idx = struct.unpack("<qqq", _read_exact(fh, 24, path))
            if idx != n:
                raise SolverError("state index mismatch in {}".format(path))
            if sizes is None:
                sizes = (nd, ns)
            elif (nd, ns) != sizes:
                raise SolverError("block sizes in {} differ from state_0.bin".format(path))
            for rows, count in ((U, nd), (Sigma, ns), (dtU, nd)):
                rows.append(np.frombuffer(_read_exact(fh, 8 * count, path), dtype="<f8"))
            if fh.read(1):
                raise SolverError("trailing bytes in {}".format(path))
    return nodes, np.array(U), np.array(Sigma), np.array(dtU)
