"""Static checks of the package source.

A function local that is assigned and never read is dead code or a
value computed and then forgotten; names starting with "_" are exempt.
No module imports scipy.special: its import alone costs every run a few
MB of resident memory, and numpy builds the quadrature rules.  No module
calls spsolve: every sparse system is factorized once with splu and its
factor kept, and block-diagonal ones are solved cell by cell.
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
