"""The benchmark's three workloads, each one round of calls into mixedwave.

A round runs every stage of its workload through the package's public
functions, times each stage from outside, and ends with the output
checks.  Every check is one operation.  A round does the same
operations whatever the seed, so the share of failed operations is the
same in every run.
"""

import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import sympy

from mixedwave import estimators as est
from mixedwave import reconstruction as rec
from mixedwave import solver
from mixedwave import verification as ver
from mixedwave.assembly import assemble_system
from mixedwave.mesh import build_mesh, read_mesh, unit_square_mesh, write_mesh
from mixedwave.spaces import MixedSpace

import oracle

# Timed stages and the end-to-end metric each one adds to (None: total_s only).
STAGES = {
    "verification.register_s": "setup_s",
    "mesh.build_s": "setup_s",
    "spaces.build_s": "setup_s",
    "assembly.assemble_s": "solve_s",
    "solver.run_s": "solve_s",
    "verification.true_error_s": "estimate_s",
    "estimators.temporal_s": "estimate_s",
    "estimators.compose_report_s": "estimate_s",
    "reconstruction.reconstruct_s": None,
    "solver.save_s": None,
    "solver.load_s": None,
    "estimators.write_csv_s": None,
}

TEMPORAL_TERMS = ("e11", "e12", "e13", "e14", "e21", "e22", "e23", "e24")

COUNTS = (
    "solver.bytes_written",
    "verification.f_evals",
    "verification.f_points",
    "mesh.cells",
    "spaces.dofs",
    "solver.steps",
    "estimators.nodes",
)

# Sizes of each workload: "full" for timed runs, "smoke" for the quick
# run that exercises every check, and "warm" for the round before timing
# that only triggers lazy imports and first-call set-up.
SIZES = {
    "estimate-varcoef": {
        "full": {"n": 12, "N": 40},
        "smoke": {"n": 16, "N": 10},
        "warm": {"n": 4, "N": 4},
    },
    "study-standing": {
        "full": {"levels": (4, 8, 16), "coupling": 0.5},
        "smoke": {"levels": (3, 6, 12), "coupling": 0.25},
        "warm": {"levels": (2, 3, 4), "coupling": 1.0},
    },
    "solve-forced-rt1": {
        "full": {"n": 16, "N": 80},
        "smoke": {"n": 16, "N": 20},
        "warm": {"n": 4, "N": 4},
    },
}

# Tolerances of the checks.  The two quadratures differ in the last
# digits of smooth integrals; the discrete identities hold to round-off.
TRUE_ERROR_RTOL = 1e-4
IDENTITY_RTOL = 1e-9
RATE_RANGE = (0.75, 1.25)
CALIBRATED_RANGE = (1.0, 10.0)


class Round:
    """Timings, counts and operation outcomes of one workload round."""

    def __init__(self, workdir, profiler=None):
        self.workdir = workdir
        self.profiler = profiler
        self.times = dict.fromkeys(STAGES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.attempted = 0
        self.failed = []  # operations the program did not carry out
        self.wrong = []  # checks whose outputs were wrong
        self.cpu = 0.0  # CPU seconds of the whole round
        self.elapsed = 0.0  # wall-clock seconds, for scheduling rounds only

    @contextmanager
    def stage(self, name):
        if self.profiler is not None:
            self.profiler.enable()
        t0 = time.process_time()
        try:
            yield
        finally:
            self.times[name] += time.process_time() - t0
            if self.profiler is not None:
                self.profiler.disable()

    def check(self, name, ok, detail):
        """An output check: a wrong output makes the run incorrect."""
        self.attempted += 1
        if not ok:
            self.wrong.append("{}: {}".format(name, detail))

    def operation(self, name, ok, detail):
        """An operation the program must carry out; counted as failed if not."""
        self.attempted += 1
        if not ok:
            self.failed.append("{}: {}".format(name, detail))

    def forcing(self, f):
        """Wrap the forcing callable so its calls and points are counted."""
        if f is None:
            return None
        counts = self.counts

        def counted(x, y, t):
            counts["verification.f_evals"] += 1
            counts["verification.f_points"] += int(np.size(x))
            return f(x, y, t)

        return counted

    def count_run(self, space, steps):
        self.counts["mesh.cells"] += space.mesh.num_cells
        self.counts["spaces.dofs"] += space.n_stress + space.n_disp
        self.counts["solver.steps"] += steps

    def end_to_end(self):
        out = {"total_s": self.cpu, "setup_s": 0.0, "solve_s": 0.0, "estimate_s": 0.0}
        for name, group in STAGES.items():
            if group is not None:
                out[group] += self.times[name]
        return out


def run_round(workload, size, seed, workdir, profiler=None):
    rnd = Round(workdir, profiler)
    t0, c0 = time.perf_counter(), time.process_time()
    WORKLOADS[workload](rnd, size, seed)
    rnd.cpu = time.process_time() - c0
    rnd.elapsed = time.perf_counter() - t0
    return rnd


# ----------------------------------------------------------------------
# shared stages and checks
# ----------------------------------------------------------------------

def _register(rnd, name):
    # A fresh process pays the full symbolic derivation; clearing sympy's
    # cache makes every round pay it too.
    sympy.core.cache.clear_cache()
    with rnd.stage("verification.register_s"):
        return ver.PROBLEMS[name]()


def _solve(rnd, problem, space, N, forcing_mode="pointwise"):
    f = rnd.forcing(problem.f)
    with rnd.stage("assembly.assemble_s"):
        system = assemble_system(space, problem.A)
    with rnd.stage("solver.run_s"):
        traj = solver.run(
            system, f, problem.u0, problem.u1,
            solver.uniform_grid(problem.final_time, N),
            forcing_mode=forcing_mode,
        )
    rnd.count_run(space, N)
    return traj


def _check_true_errors(rnd, label, problem, traj, err_u, err_s, initial=None):
    mine_u, mine_s, mine_0 = oracle.true_errors(
        traj.space, oracle.EXACT[problem.name], traj.grid.nodes,
        traj.U, traj.Sigma, traj.dtU[0],
    )
    gaps = [oracle.relative_gap(mine_u, err_u), oracle.relative_gap(mine_s, err_s)]
    if initial is not None:
        gaps += [oracle.relative_gap(a, b) for a, b in zip(mine_0, initial)]
    rnd.check(
        label + "true errors", max(gaps) <= TRUE_ERROR_RTOL,
        "largest relative gap to the closed-form errors is {:.3e}".format(max(gaps)),
    )


def _check_bounds(rnd, label, report, err_u, err_s):
    ratio_u = float(np.min(report.bound_u / np.maximum(err_u, 1e-300)))
    ratio_s = float(np.min(report.bound_sigma / np.maximum(err_s, 1e-300)))
    rnd.check(label + "bound_u >= err_u", bool(np.all(report.bound_u >= err_u)),
              "smallest bound/error ratio {:.4g}".format(ratio_u))
    rnd.check(label + "bound_sigma >= err_sigma", bool(np.all(report.bound_sigma >= err_s)),
              "smallest bound/error ratio {:.4g}".format(ratio_s))


def _check_accumulators(rnd, label, series):
    bad = [name for name, a in series.items() if np.any(np.diff(a) < 0.0)]
    rnd.check(label + "temporal accumulators nondecreasing", not bad,
              "decreasing: {}".format(", ".join(bad)))


def _check_orthogonality(rnd, recon):
    defect = oracle.reconstruction_orthogonality(recon)
    rnd.check("reconstruction Galerkin orthogonality", defect <= IDENTITY_RTOL,
              "relative defect {:.3e}".format(defect))


def _reconstruct(rnd, traj):
    with rnd.stage("reconstruction.reconstruct_s"):
        return rec.reconstruct_trajectory(traj, enriched=rec.enrich_space(traj.space))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def estimate_varcoef(rnd, size, seed):
    """Variable coefficient, RT0, structured mesh, pointwise forcing."""
    problem = _register(rnd, "variable-coefficient")
    with rnd.stage("mesh.build_s"):
        mesh = unit_square_mesh(size["n"])
    with rnd.stage("spaces.build_s"):
        space = MixedSpace(mesh, 0)
    traj = _solve(rnd, problem, space, size["N"])
    with rnd.stage("verification.true_error_s"):
        err_u, err_s = ver.true_error(traj, problem)
        initial = ver.initial_errors(traj, problem)
    with rnd.stage("estimators.temporal_s"):
        temporal = est.temporal_estimate(traj)
    with rnd.stage("estimators.compose_report_s"):
        report = est.compose_report(
            traj, A=problem.A, constants="unit", temporal=temporal,
            err_u=err_u, err_sigma=err_s, initial_errors=initial,
        )
    csv = os.path.join(rnd.workdir, "report.csv")
    with rnd.stage("estimators.write_csv_s"):
        est.write_report_csv(report, csv)
    recon = _reconstruct(rnd, traj)
    rnd.counts["estimators.nodes"] += size["N"] + 1

    _check_true_errors(rnd, "", problem, traj, err_u, err_s, initial)
    _check_bounds(rnd, "", report, err_u, err_s)
    _check_accumulators(rnd, "", {name: getattr(temporal, name) for name in TEMPORAL_TERMS})
    table = np.genfromtxt(csv, delimiter=",", names=True)
    same = np.array_equal(table["bound_u"], report.bound_u) and np.array_equal(
        table["bound_sigma"], report.bound_sigma
    )
    rnd.check("report.csv round trip", same, "bounds read back differ from the report")
    _check_orthogonality(rnd, recon)


def study_standing(rnd, size, seed):
    """Spatial study of the standing wave, k ~ coupling * h^2, unit bounds.

    Follows the calls run_spatial_study makes, level by level, and
    computes rates and effectivities here from the per-level figures.
    """
    problem = _register(rnd, "standing-wave")
    T = problem.final_time
    h, e_u, e_s, b_u, b_s, off_u, off_s = [], [], [], [], [], [], []
    for n in size["levels"]:
        label = "level {}: ".format(n)
        hn = np.sqrt(2.0) / n
        N = max(2, int(round(T / (size["coupling"] * hn ** 2))))
        with rnd.stage("mesh.build_s"):
            mesh = unit_square_mesh(n)
        with rnd.stage("spaces.build_s"):
            space = MixedSpace(mesh, 0)
        traj = _solve(rnd, problem, space, N)
        with rnd.stage("verification.true_error_s"):
            err_u, err_s = ver.true_error(traj, problem)
            initial = ver.initial_errors(traj, problem)
        with rnd.stage("estimators.compose_report_s"):
            report = est.compose_report(
                traj, A=problem.A, constants="unit",
                err_u=err_u, err_sigma=err_s, initial_errors=initial,
            )
        rnd.counts["estimators.nodes"] += N + 1

        _check_true_errors(rnd, label, problem, traj, err_u, err_s, initial)
        _check_bounds(rnd, label, report, err_u, err_s)
        _check_accumulators(rnd, label, {name: report.components[name] for name in TEMPORAL_TERMS})
        mu, ms = int(np.argmax(err_u)), int(np.argmax(err_s))
        h.append(hn)
        e_u.append(err_u[mu])
        e_s.append(err_s[ms])
        b_u.append(report.bound_u[mu])
        b_s.append(report.bound_sigma[ms])
        off_u.append(initial[0])
        off_s.append(initial[1] + initial[2])

    e_u, e_s, b_u, b_s = map(np.array, (e_u, e_s, b_u, b_s))
    off_u, off_s = np.array(off_u), np.array(off_s)
    lo, hi = RATE_RANGE
    for name, e in (("u", e_u), ("sigma", e_s)):
        r = oracle.rates(h, e)
        rnd.check("rate_" + name, bool(np.all((r >= lo) & (r <= hi))),
                  "observed rates {}".format(np.round(r, 4).tolist()))
    for name, b, e in (("u", b_u, e_u), ("sigma", b_s, e_s)):
        eff = b / e
        rnd.check("unit effectivity " + name, bool(np.all(eff >= 1.0)),
                  "effectivities {}".format(np.round(eff, 4).tolist()))
    # Calibrated bounds: the estimator part of the unit bound rescaled so
    # that the coarsest level has effectivity 2, the scale then frozen.
    lo, hi = CALIBRATED_RANGE
    for name, b, e, off in (("u", b_u, e_u, off_u), ("sigma", b_s, e_s, off_s)):
        scale = (2.0 * e[0] - off[0]) / (b[0] - off[0])
        eff = (off + scale * (b - off)) / e
        rnd.check("calibrated effectivity " + name, bool(np.all((eff >= lo) & (eff <= hi))),
                  "effectivities {}".format(np.round(eff, 4).tolist()))


def jittered_mesh(n, seed):
    """Unit-square grid with interior vertices moved by up to h/10 per axis.

    Each cell's doubled area is h^2; moves this small change it by at
    most 0.77 h^2, so every cell stays positively oriented.
    """
    base = unit_square_mesh(n)
    v = np.array(base.vertices)
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    v[interior] += rng.uniform(-0.1, 0.1, (int(interior.sum()), 2)) / n
    return build_mesh(v, base.cells, check_hanging=False)


def solve_forced_rt1(rnd, size, seed):
    """Forced problem, RT1, interval-averaged forcing, mesh read from files."""
    problem = _register(rnd, "forced-cos20")
    written = jittered_mesh(size["n"], seed)
    node, ele = (os.path.join(rnd.workdir, "mesh." + ext) for ext in ("node", "ele"))
    write_mesh(written, node, ele)
    with rnd.stage("mesh.build_s"):
        mesh = read_mesh(node, ele)
    with rnd.stage("spaces.build_s"):
        space = MixedSpace(mesh, 1)
    traj = _solve(rnd, problem, space, size["N"], forcing_mode="average")
    tdir = os.path.join(rnd.workdir, "trajectory")
    with rnd.stage("solver.save_s"):
        solver.save_trajectory(traj, tdir)
    rnd.counts["solver.bytes_written"] += sum(
        os.path.getsize(os.path.join(tdir, name)) for name in os.listdir(tdir)
    )
    with rnd.stage("solver.load_s"):
        nodes, U, Sigma, dtU = solver.load_states(tdir)
    with rnd.stage("estimators.temporal_s"):
        temporal = est.temporal_estimate(traj)
    recon = _reconstruct(rnd, traj)
    with rnd.stage("verification.true_error_s"):
        err_u, err_s = ver.true_error(traj, problem)
    rnd.counts["estimators.nodes"] += size["N"] + 1

    rnd.check(
        "mesh read back", np.array_equal(mesh.vertices, written.vertices)
        and np.array_equal(mesh.cells, written.cells),
        "read_mesh returned other vertices or cells than were written",
    )
    worst = oracle.step_residuals(
        traj.system, traj.grid.nodes, traj.U, traj.Sigma, traj.dtU, traj.f_bar
    )
    rnd.check("discrete residuals", worst <= IDENTITY_RTOL,
              "largest relative step residual {:.3e}".format(worst))
    same = all(np.array_equal(a, b) for a, b in (
        (nodes, traj.grid.nodes), (U, traj.U), (Sigma, traj.Sigma), (dtU, traj.dtU)
    ))
    rnd.check("trajectory reload", same, "load_states returned other values than were saved")
    _reload_truncated(rnd, tdir)
    _check_accumulators(rnd, "", {name: getattr(temporal, name) for name in TEMPORAL_TERMS})
    _check_orthogonality(rnd, recon)
    _check_true_errors(rnd, "", problem, traj, err_u, err_s)


def _reload_truncated(rnd, tdir):
    """Reloading state files cut short by one float64 must raise SolverError."""
    cut = tdir + "-truncated"
    shutil.copytree(tdir, cut)
    for name in os.listdir(cut):
        if name.startswith("state_"):
            path = os.path.join(cut, name)
            os.truncate(path, os.path.getsize(path) - 8)
    try:
        _, _, _, dtU = solver.load_states(cut)
    except solver.SolverError:
        rnd.operation("truncated reload", True, "")
    except Exception as exc:  # any other outcome is the failure being counted
        rnd.operation("truncated reload", False,
                      "solver.load_states raised {} instead of SolverError".format(
                          type(exc).__name__))
    else:
        rnd.operation(
            "truncated reload", False,
            "solver.load_states accepted state files cut short by one float64 "
            "and returned dtU of shape {} without raising SolverError".format(dtU.shape),
        )


WORKLOADS = {
    "estimate-varcoef": estimate_varcoef,
    "study-standing": study_standing,
    "solve-forced-rt1": solve_forced_rt1,
}
