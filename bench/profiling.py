"""Per-module attribution of a cProfile record of the package's calls.

A function defined in `src/mixedwave/<module>.py` belongs to that
module.  Any other function (numpy, scipy, sympy, builtins) is charged
to the package modules that called it: its share of each module is the
cumulative-time-weighted mean of its callers' shares, solved as a
fixed point over the caller graph so that recursion is handled.  Time
that reaches no package frame stays unattributed.
"""

import os
import pstats

import numpy as np
import scipy.sparse as sp

MODULES = (
    "verification",
    "mesh",
    "spaces",
    "quadrature",
    "assembly",
    "solver",
    "estimators",
    "reconstruction",
)

# The initial-stress solve is a mass-matrix factorization, not a step.
_NOT_A_STEP = "initial_stress"


def _is_superlu_solve(func):
    return func[0] == "~" and "'solve'" in func[2] and "SuperLU" in func[2]


def _is_factorization(func):
    return "scipy" in func[0] and func[2] in ("splu", "factorized")


def _is_inv(func):
    return "numpy" in func[0] and "linalg" in func[0] and func[2] == "inv"


class Attribution:
    """Self time per module and call counts from one profile."""

    def __init__(self, profiler, package_dir):
        self.stats = pstats.Stats(profiler).stats
        self.package_dir = os.path.realpath(package_dir) + os.sep

    def module_of(self, func):
        path = func[0]
        if path.startswith(self.package_dir):
            name = os.path.splitext(path[len(self.package_dir):])[0]
            return name if name in MODULES else None
        return None

    def _shares(self):
        """Share of each function's calls owed to each module, by function."""
        outside = [f for f in self.stats if self.module_of(f) is None]
        index = {f: i for i, f in enumerate(outside)}
        col = {m: j for j, m in enumerate(MODULES)}
        w_rows, w_cols, w_vals, direct = [], [], [], np.zeros((len(outside), len(MODULES)))
        for f, i in index.items():
            callers = self.stats[f][4]
            total = sum(rec[3] for rec in callers.values())
            if total <= 0.0:
                continue
            for caller, rec in callers.items():
                mod = self.module_of(caller)
                if mod is not None:
                    direct[i, col[mod]] += rec[3] / total
                elif caller in index:
                    w_rows.append(i)
                    w_cols.append(index[caller])
                    w_vals.append(rec[3] / total)
        W = sp.csr_matrix((w_vals, (w_rows, w_cols)), shape=(len(outside),) * 2)
        shares = direct.copy()
        for _ in range(1000):
            new = direct + W @ shares
            done = np.abs(new - shares).max(initial=0.0) < 1e-12
            shares = new
            if done:
                break
        out = {f: dict(zip(MODULES, shares[i])) for f, i in index.items()}
        out.update({f: {self.module_of(f): 1.0} for f in self.stats if f not in index})
        return out

    def self_seconds(self):
        shares = self._shares()
        out = {m: 0.0 for m in MODULES}
        for func, (_, _, tt, _, callers) in self.stats.items():
            mod = self.module_of(func)
            if mod is not None:
                out[mod] += tt
                continue
            for caller, rec in callers.items():
                for m, frac in shares.get(caller, {}).items():
                    out[m] += rec[2] * frac
        return out

    def calls(self, callee_test, module, exclude=None):
        """Calls into functions matching `callee_test` made from `module`."""
        total = 0
        for func, (_, _, _, _, callers) in self.stats.items():
            if not callee_test(func):
                continue
            for caller, rec in callers.items():
                if self.module_of(caller) == module and caller[2] != exclude:
                    total += rec[0]
        return total

    def calls_to(self, module, name):
        return sum(
            st[1]
            for func, st in self.stats.items()
            if func[2] == name and self.module_of(func) == module
        )

    def metrics(self):
        """The traced per-layer metrics, by name."""
        out = {m + ".self_s": s for m, s in self.self_seconds().items()}
        out["solver.factorizations"] = self.calls(_is_factorization, "solver", _NOT_A_STEP)
        out["solver.lu_solves"] = self.calls(_is_superlu_solve, "solver", _NOT_A_STEP)
        out["reconstruction.factorizations"] = self.calls(_is_factorization, "reconstruction")
        out["reconstruction.lu_solves"] = self.calls(_is_superlu_solve, "reconstruction")
        out["assembly.alpha_inv_calls"] = self.calls(_is_inv, "assembly")
        out["estimators.spatial_estimate_calls"] = self.calls_to(
            "estimators", "spatial_estimate"
        )
        return out
