"""Static checks of the package source.

A function local that is assigned and never read is dead code or a
value computed and then forgotten; names starting with "_" are exempt.
No module imports scipy.special: its import alone costs every run a few
MB of resident memory, and numpy builds the quadrature rules.  No module
calls spsolve: every sparse system is factorized once with splu and its
factor kept, and block-diagonal ones are solved cell by cell.  Only
solver._condense, whose factors are kept per weight 1 / k_n^2 of the
grid's step sizes, and solver.initial_stress call splu, so no factor of
the mixed system gets around that cache.  Only
spaces.py branches on the RT index: the element's layout, basis and
derivatives live there, and no other module may compare rt_index with a
constant or test its truth.  In the same way only solver.py branches on
the forcing mode: solver.forcing_blocks alone decides how f is sampled,
and every other module reads its samples or the ones the run kept.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mixedwave"


def _functions(tree):
    """Top-level functions and methods; nested functions stay in their parent."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _unread_locals(fn):
    stored, loaded = {}, set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            else:
                loaded.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            loaded.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            loaded.update(node.names)
    return sorted(
        (line, name) for name, line in stored.items()
        if name not in loaded and not name.startswith("_")
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_local_is_stored_and_never_loaded(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [
        "{}:{} {}() stores {!r} and never reads it".format(path.name, line, fn.name, name)
        for fn in _functions(tree)
        for line, name in _unread_locals(fn)
    ]
    assert not unread, "\n".join(unread)


def _imported_modules(tree):
    """Dotted names of the modules and members each import statement brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (node.module + "." + alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_special(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    special = [
        name for name in _imported_modules(tree)
        if name == "scipy.special" or name.startswith("scipy.special.")
    ]
    assert not special, "{} imports {}".format(path.name, ", ".join(special))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_spsolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        "line {}".format(node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "spsolve" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )
    ] + [name for name in _imported_modules(tree) if name.endswith(".spsolve")]
    assert not found, "{} calls spsolve: {}".format(path.name, ", ".join(found))


def _splu_calls(tree):
    """(function, line) of each splu call: the enclosing top-level function
    or method, or "<module>"; and ("import", line) of each import of splu."""
    owner = {node: fn.name for fn in _functions(tree) for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "splu" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            yield owner.get(node, "<module>"), node.lineno
        elif isinstance(node, ast.ImportFrom) and any(a.name == "splu" for a in node.names):
            yield "import", node.lineno


def test_only_condense_and_initial_stress_call_splu():
    callers = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name, _ in _splu_calls(ast.parse(path.read_text(), filename=str(path)))
    }
    assert callers == {("solver.py", "_condense"), ("solver.py", "initial_stress")}


def test_splu_guard_sees_calls_and_imports():
    source = (
        "from scipy.sparse.linalg import splu as lu\n"
        "x = spla.splu(S)\n"
        "def f(S):\n    return splu(S)\n"
        "class C:\n    def g(self, S):\n        return spla.splu(S)\n"
    )
    assert sorted(_splu_calls(ast.parse(source))) == [
        ("<module>", 2), ("f", 4), ("g", 7), ("import", 1),
    ]


def _branches(tree, name):
    """Lines that compare the variable or attribute `name` with a constant
    or test its truth."""
    def is_named(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            node = node.operand
        return name in (getattr(node, "attr", None), getattr(node, "id", None))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            constant = (ast.Constant, ast.Tuple, ast.List, ast.Set)
            if any(map(is_named, operands)) and any(isinstance(o, constant) for o in operands):
                yield node.lineno
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)) and is_named(node.test):
            yield node.lineno
        elif isinstance(node, ast.BoolOp) and any(map(is_named, node.values)):
            yield node.lineno


def test_rt_index_guard_sees_comparisons_and_truth_tests():
    source = (
        "if space.rt_index == 1:\n    pass\n"
        "x = a if not s.rt_index else b\n"
        "y = 0 < rt_index\n"
        "z = rt_index in (0, 1) or space.rt_index\n"
        "w = h ** (space.rt_index + 1)\n"
    )
    assert sorted(_branches(ast.parse(source), "rt_index")) == [1, 3, 4, 5, 5]


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "spaces.py"}), ids=lambda p: p.name
)
def test_only_spaces_branches_on_the_rt_index(path):
    lines = sorted(set(_branches(ast.parse(path.read_text(), filename=str(path)), "rt_index")))
    assert not lines, "{} branches on rt_index at lines {}".format(path.name, lines)


def test_forcing_mode_guard_sees_comparisons():
    source = (
        "if traj.forcing_mode == 'average':\n    pass\n"
        "x = forcing_mode in ('pointwise', 'average')\n"
        "y = run(system, f, u0, u1, grid, forcing_mode=mode)\n"
    )
    assert sorted(_branches(ast.parse(source), "forcing_mode")) == [1, 3]


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "solver.py"}), ids=lambda p: p.name
)
def test_only_solver_branches_on_the_forcing_mode(path):
    lines = sorted(set(_branches(ast.parse(path.read_text(), filename=str(path)), "forcing_mode")))
    assert not lines, "{} branches on forcing_mode at lines {}".format(path.name, lines)
