"""Batch front-end: config parsing, runs, CSV reports and manifests.

Commands: solve (write a trajectory), estimate (write estimator report
CSVs), study (convergence/effectivity CSV), oracle-check (dense-oracle
and invariant suite).  Configuration comes from a plain-text
``key = value`` file with command-line flags taking precedence; every
output directory receives ``resolved_config.txt`` and ``manifest.txt``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 oracle or acceptance failure.
"""

import argparse
import hashlib
import os
import sys
import time


class ConfigError(Exception):
    exit_code = 2


class UnknownKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class MissingRequiredError(ConfigError):
    pass


class UnknownValueError(ConfigError):
    pass


_DEFAULTS = {
    "command": None,
    "problem": None,
    "mesh_n": 8,
    "mesh_files": None,  # "node.path,ele.path"
    "rt_index": 0,
    "steps": 20,
    "T": 0.5,
    "forcing": "pointwise",
    "constants": "unit",
    "out": "out",
    "study": "spatial",
    "levels": "8,16,32",
}

_TYPES = {"mesh_n": int, "rt_index": int, "steps": int, "T": float}
_CHOICES = {
    "command": ("solve", "estimate", "study", "oracle-check"),
    "rt_index": (0, 1),
    "forcing": ("pointwise", "average"),
    "constants": ("unit", "calibrated"),
    "study": ("spatial", "temporal"),
}


def _coerce(key, raw):
    val = raw
    if key in _TYPES:
        try:
            val = _TYPES[key](raw)
        except (TypeError, ValueError):
            what = "an integer" if _TYPES[key] is int else "a number"
            raise TypeMismatchError("key '{}' expects {}, got {!r}".format(key, what, raw))
    if key in _CHOICES and val is not None and val not in _CHOICES[key]:
        raise UnknownValueError(
            "key '{}' must be one of {}, got {!r}".format(key, _CHOICES[key], val)
        )
    return val


def read_config_file(path):
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("line {} of {} is not 'key = value'".format(ln, path))
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _DEFAULTS:
                raise UnknownKeyError("unknown config key '{}'".format(key))
            values[key] = _coerce(key, raw.strip())
    return values


def parse_config(argv):
    """Resolve the run configuration: defaults < config file < flags; every
    key but the command has a flag (mesh_n as --mesh-n), checked by _coerce."""
    ap = argparse.ArgumentParser(prog="mixedwave", add_help=True)
    ap.add_argument("command", nargs="?", help=", ".join(_CHOICES["command"]))
    ap.add_argument("--config")
    for key in _DEFAULTS:
        if key == "mesh_files":
            ap.add_argument("--mesh-files", dest=key, nargs=2, metavar=("NODE", "ELE"))
        elif key != "command":
            ap.add_argument("--" + key.replace("_", "-"), dest=key)
    args = ap.parse_args(argv)

    cfg = dict(_DEFAULTS)
    if args.config:
        if not os.path.exists(args.config):
            raise MissingRequiredError("config file '{}' not found".format(args.config))
        cfg.update(read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            if key == "mesh_files":
                flag = ",".join(flag)
            cfg[key] = _coerce(key, flag)

    if cfg["command"] is None:
        raise MissingRequiredError("key 'command' is required")
    if cfg["command"] != "oracle-check" and cfg["problem"] is None:
        raise MissingRequiredError("key 'problem' is required")
    if cfg["mesh_n"] < 1:
        raise TypeMismatchError("key 'mesh_n' must be >= 1")
    if cfg["steps"] < 1:
        raise TypeMismatchError("key 'steps' must be >= 1")
    if cfg["T"] <= 0.0:
        raise TypeMismatchError("key 'T' must be positive")
    if cfg["mesh_files"] is not None:
        for p in cfg["mesh_files"].split(","):
            if not os.path.exists(p):
                raise MissingRequiredError("mesh file '{}' not found".format(p))
    try:
        cfg["levels_list"] = [int(s) for s in str(cfg["levels"]).split(",") if s.strip()]
    except ValueError:
        raise TypeMismatchError("key 'levels' expects comma-separated integers")
    if any(n < 1 for n in cfg["levels_list"]):
        raise TypeMismatchError("key 'levels' must be >= 1 at every level")
    if cfg["command"] == "study" and len(cfg["levels_list"]) < 3:
        raise MissingRequiredError("key 'levels' needs at least 3 levels")
    return cfg


def _write_resolved(cfg, outdir):
    text = "".join("{} = {}\n".format(key, cfg[key]) for key in sorted(_DEFAULTS))
    with open(os.path.join(outdir, "resolved_config.txt"), "w") as fh:
        fh.write(text)
    return text


def _write_manifest(outdir, resolved_text, wall):
    import numpy
    import scipy

    from . import __version__

    sha = hashlib.sha256(resolved_text.encode()).hexdigest()
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("config_sha256 = {}\n".format(sha))
        fh.write("mixedwave = {}\n".format(__version__))
        fh.write("numpy = {}\n".format(numpy.__version__))
        fh.write("scipy = {}\n".format(scipy.__version__))
        fh.write("wall_seconds = %.3f\n" % wall)


def _problem(cfg):
    from .verification import PROBLEMS

    name = cfg["problem"]
    if name not in PROBLEMS:
        raise UnknownValueError(
            "key 'problem' must be one of {}, got {!r}".format(sorted(PROBLEMS), name)
        )
    return PROBLEMS[name]()


def _build_space(cfg):
    from .mesh import MeshError, read_mesh, unit_square_mesh
    from .spaces import MixedSpace

    if cfg["mesh_files"] is not None:
        node, ele = cfg["mesh_files"].split(",")
        try:
            mesh = read_mesh(node, ele)
        except (MeshError, OSError) as exc:
            raise ConfigError("mesh files: {}".format(exc)) from exc
    else:
        mesh = unit_square_mesh(cfg["mesh_n"])
    return MixedSpace(mesh, cfg["rt_index"])


def _run(cfg):
    from . import solver
    from .assembly import assemble_system

    problem = _problem(cfg)
    space = _build_space(cfg)
    system = assemble_system(space, problem.A)
    traj = solver.run(
        system,
        problem.f,
        problem.u0,
        problem.u1,
        solver.uniform_grid(cfg["T"], cfg["steps"]),
        forcing_mode=cfg["forcing"],
    )
    return problem, traj


def cmd_solve(cfg, outdir):
    from . import solver

    _, traj = _run(cfg)
    solver.save_trajectory(traj, os.path.join(outdir, "trajectory"))
    return 0


def cmd_estimate(cfg, outdir):
    from . import estimators as est
    from .verification import initial_errors, true_error

    problem, traj = _run(cfg)
    err_u, err_sigma = true_error(traj, problem)
    report = est.compose_report(
        traj, err_u=err_u, err_sigma=err_sigma, initial_errors=initial_errors(traj, problem)
    )
    if cfg["constants"] == "calibrated":
        report = est.calibrated(report, est.calibrate_scales(report))
    est.write_report_csv(report, os.path.join(outdir, "report.csv"))
    final = traj.grid.num_steps
    se = est.spatial_estimate(
        traj.system, traj.Sigma[final], est.r2_strong_values(traj, final), traj.U[final]
    )
    est.write_cellwise_csv(se, traj.space.mesh, os.path.join(outdir, "cells_final.csv"))
    return 0


def cmd_study(cfg, outdir):
    from .verification import run_spatial_study, run_temporal_study

    problem = _problem(cfg)
    if cfg["study"] == "spatial":
        result = run_spatial_study(
            problem,
            mesh_levels=tuple(cfg["levels_list"]),
            rt_index=cfg["rt_index"],
            T=cfg["T"],
            forcing_mode=cfg["forcing"],
            constants=cfg["constants"],
        )
    else:
        result = run_temporal_study(
            problem,
            mesh_n=cfg["mesh_n"],
            steps=tuple(cfg["levels_list"]),
            rt_index=cfg["rt_index"],
            T=cfg["T"],
            forcing_mode=cfg["forcing"],
        )
    result.write_csv(os.path.join(outdir, "study.csv"))
    return 0


def cmd_oracle_check(cfg, outdir):
    import numpy as np

    from . import estimators as est
    from . import solver
    from .verification import energy_drift, oracle_small_instance, solve_problem, standing_wave

    failures = []
    for l in (0, 1):
        worst = oracle_small_instance(rt_index=l)
        if worst > 1e-11:
            failures.append("dense oracle gap {} at RT index {}".format(worst, l))
    sw = standing_wave()
    traj = solve_problem(sw, 8, 20)
    drift = energy_drift(traj)
    if drift > 1e-10:
        failures.append("energy drift {}".format(drift))
    for n in range(traj.grid.num_steps + 1):
        r1, r2 = solver.residual_functionals(traj, n)
        scale = max(1.0, float(np.abs(traj.Sigma[n]).max()))
        if float(np.abs(r1).max()) > 1e-9 * scale:
            failures.append("first residual defect at node {}".format(n))
        if r2 is not None and float(np.abs(r2).max()) > 1e-8 * scale / traj.grid.steps[0]:
            failures.append("second residual defect at node {}".format(n))
    te = est.temporal_estimate(traj)
    for name in ("e11", "e12", "e13", "e14", "e21", "e22", "e23", "e24"):
        if np.any(np.diff(getattr(te, name)) < -1e-14):
            failures.append("temporal accumulator {} decreased".format(name))
    with open(os.path.join(outdir, "oracle_check.txt"), "w") as fh:
        fh.write("\n".join(failures or ["all oracle checks passed"]) + "\n")
    if failures:
        for f in failures:
            print("oracle-failure: {}".format(f), file=sys.stderr)
        return 4
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "estimate": cmd_estimate,
    "study": cmd_study,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print("config-error: {}".format(exc), file=sys.stderr)
        return 2

    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    resolved = _write_resolved(cfg, outdir)
    start = time.time()
    try:
        code = _COMMANDS[cfg["command"]](cfg, outdir)
    except ConfigError as exc:
        print("config-error: {}".format(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        print("numerical-error: {}: {}".format(type(exc).__name__, exc), file=sys.stderr)
        return 3
    _write_manifest(outdir, resolved, time.time() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
