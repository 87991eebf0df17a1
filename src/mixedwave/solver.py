"""Backward-difference time stepping of the fully discrete mixed scheme.

Each step solves the coupled saddle system for (U^n, Sigma^n) obtained by
eliminating the second backward difference
d2U^n = (U^n - U^{n-1} - k_n dU^{n-1}) / k_n^2.  The first step uses
dU^0 = P_h u1 and U^0 = P_h u0; the initial stress Sigma^0 solves
(alpha Sigma^0, v) = (U^0, div v), which makes the first discrete
equation hold at n = 0 as well.
"""

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .assembly import SaddleSystem, disp_l2_norm, load_of_values
from .spaces import l2_project_scalar

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


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes t_0 = 0 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        if len(t) < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise GridError("time nodes must start at 0 and strictly increase")
        object.__setattr__(self, "nodes", t)

    @property
    def steps(self):
        return np.diff(self.nodes)

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


def uniform_grid(T, N):
    return TimeGrid(np.linspace(0.0, T, N + 1))


@dataclass
class Trajectory:
    """Discrete states of one run on a fixed mesh.

    U, Sigma, dtU hold one coefficient row per time node; f_bar holds the
    load vectors (f_bar^n, w_h) actually used (row 0 is the load at t=0).
    forcing_mode is "pointwise" or "average" (see sample_forcing).  The
    run keeps the forcing data every estimator reads, so none samples
    f_bar^n again: fbar_quad holds f_bar^n at space.quad_points, shape
    (N+1, T, nq), and, under "average", forcing_defect holds the step
    integrals int_{I_n} ||f_bar^n - f|| of the 5-point Gauss rule on the
    samples that built f_bar^n (entry 0 is zero).  Both are None when
    f is None; forcing_defect is None under "pointwise" too.
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
        d2[1:] = np.diff(self.dtU, axis=0) / self.grid.steps[:, None]
        return d2

    def energy(self, n):
        """Discrete energy ||dtU^n||^2 + ||Sigma^n||^2_{A^-1}."""
        s = self.system
        return float(
            self.dtU[n] @ (s.M_u @ self.dtU[n])
            + self.Sigma[n] @ (s.M_sigma @ self.Sigma[n])
        )


def _saddle_matrix(system, k):
    K = sp.bmat(
        [
            [system.M_sigma, -system.B.T],
            [system.B, system.M_u / k ** 2],
        ],
        format="csc",
    )
    return K


def _factorize(system, k):
    # Steps that differ only by rounding (np.linspace nodes give several
    # float values for one nominal step) share one factorization.
    key = float("%.12g" % k)
    if key not in system._factor_cache:
        try:
            system._factor_cache[key] = spla.splu(_saddle_matrix(system, k))
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
    return system._factor_cache[key]


def step(system, U_prev, dtU_prev, k, load):
    """Advance one step: returns (U, Sigma, dtU) at the new node."""
    if k <= 0.0:
        raise SolverError("step size must be positive")
    lu = _factorize(system, k)
    n_s = system.space.n_stress
    rhs_u = load + system.M_u @ (U_prev + k * dtU_prev) / k ** 2
    rhs = np.concatenate([np.zeros(n_s), rhs_u])
    sol = lu.solve(rhs)
    Sigma, U = sol[:n_s], sol[n_s:]
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("solution contains non-finite entries")

    r1 = system.M_sigma @ Sigma - system.B.T @ U
    r2 = system.B @ Sigma + system.M_u @ U / k ** 2 - rhs_u
    scale = max(
        np.abs(system.M_sigma @ Sigma).max(initial=0.0),
        np.abs(rhs_u).max(initial=0.0),
        1e-300,
    )
    if max(np.abs(r1).max(), np.abs(r2).max()) > 1e-10 * scale:
        raise ToleranceNotMetError("algebraic residual exceeds 1e-10 relative")
    dtU = (U - U_prev) / k
    return U, Sigma, dtU


def initial_stress(system, U0):
    """Sigma^0 from (alpha Sigma^0, v) = (U^0, div v) for all v_h."""
    try:
        lu = spla.splu(system.M_sigma.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return lu.solve(system.B.T @ U0)


def initial_acceleration(traj):
    """Discrete acceleration at t = 0: solves M_u a = F^0 - B Sigma^0.

    The scheme leaves the second difference at node 0 undefined; this is
    the value the spatially discrete equation assigns at t = 0, and it
    makes the second residual vanish on the discrete space at n = 0.
    """
    s = traj.system
    rhs = traj.f_bar[0] - s.B @ traj.Sigma[0]
    return spla.spsolve(s.M_u.tocsc(), rhs)


def _check_forcing_mode(forcing_mode):
    if forcing_mode not in ("pointwise", "average"):
        raise SolverError("forcing_mode must be 'pointwise' or 'average'")


def _sample(f, pts, shape, t):
    return np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1], t), dtype=float), shape)


def gauss_samples(f, pts, t_prev, t_n):
    """(weight, f at that time) at the 5 Gauss times of (t_prev, t_n]."""
    shape = pts.shape[:-1]
    k = t_n - t_prev
    return [
        (w, _sample(f, pts, shape, t_prev + tau * k))
        for tau, w in zip(_TIME_PTS, _TIME_WTS)
    ]


def sample_forcing(f, pts, t_prev, t_n, forcing_mode):
    """f_bar^n of the step (t_prev, t_n] at the points `pts` (..., 2).

    f_bar^n is f(., t_n) under "pointwise" and, under "average", the
    5-point Gauss mean of f over the step; the empty step of node 0
    (t_prev = t_n) gives f(., t_n) under both.  Returns (f_bar, samples),
    samples being the gauss_samples the average was built from (none
    under "pointwise" or on node 0).  f = None is f = 0, with no samples.
    """
    _check_forcing_mode(forcing_mode)
    shape = pts.shape[:-1]
    if f is None:
        return np.zeros(shape), []
    if forcing_mode == "pointwise" or t_n == t_prev:
        return _sample(f, pts, shape, t_n), []
    samples = gauss_samples(f, pts, t_prev, t_n)
    return sum(w * fs for w, fs in samples), samples


def step_defect(space, k, fbar, samples):
    """int_{I_n} ||f_bar^n - f||: the Gauss rule in time on `samples`."""
    return sum(w * k * disp_l2_norm(space, fbar - fs) for w, fs in samples)


def load_vector(system, f, t_prev, t_n, forcing_mode):
    """(f_bar^n, w_h) of the step (t_prev, t_n]; see sample_forcing."""
    space = system.space
    if f is None:
        return np.zeros(space.n_disp)
    fbar, _ = sample_forcing(f, space.quad_points, t_prev, t_n, forcing_mode)
    return load_of_values(space, fbar)


def run(system, f, u0, u1, grid, forcing_mode="pointwise"):
    """Run the fully discrete scheme over `grid`; returns a Trajectory.

    f_bar^n is sampled once per node at the space quadrature (see
    Trajectory for what the run keeps of it).
    """
    _check_forcing_mode(forcing_mode)
    space = system.space
    N = grid.num_steps
    U = np.zeros((N + 1, space.n_disp))
    Sigma = np.zeros((N + 1, space.n_stress))
    dtU = np.zeros((N + 1, space.n_disp))

    U[0] = l2_project_scalar(space, u0)
    dtU[0] = l2_project_scalar(space, u1)
    Sigma[0] = initial_stress(system, U[0])
    fbar_quad = defect = None
    if f is None:
        f_bar = np.zeros((N + 1, space.n_disp))
    else:
        fbar_quad = np.empty((N + 1,) + space.quad_weights.shape)
        if forcing_mode == "average":
            defect = np.zeros(N + 1)
        for n in range(N + 1):
            fbar_quad[n], samples = sample_forcing(
                f, space.quad_points, *grid.interval(n), forcing_mode
            )
            if samples:
                defect[n] = step_defect(space, grid.steps[n - 1], fbar_quad[n], samples)
        f_bar = load_of_values(space, fbar_quad)
    for n in range(1, N + 1):
        U[n], Sigma[n], dtU[n] = step(
            system, U[n - 1], dtU[n - 1], grid.steps[n - 1], f_bar[n]
        )
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

    Raises SolverError when a state file is truncated, carries trailing
    bytes, or disagrees with the first file on the block sizes.
    """
    nodes = []
    with open(os.path.join(directory, "grid.csv")) as fh:
        next(fh)
        for line in fh:
            nodes.append(float(line.split(",")[1]))
    U, Sigma, dtU = [], [], []
    sizes = None
    for n in range(len(nodes)):
        path = os.path.join(directory, "state_{}.bin".format(n))
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
    return np.array(nodes), np.array(U), np.array(Sigma), np.array(dtU)
