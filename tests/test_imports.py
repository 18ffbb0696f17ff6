"""Every name a module imports is read somewhere in the scope that imports
it: the module for a top-level import, the function for one inside a
function.  numpy and scipy are imported only inside functions, so loading
the package stays cheap for the commands that never reach them."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "simonovits"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    scope_of = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            scope_of[child] = scope
            inner = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef,
                        ast.Lambda)) else scope
            visit(child, inner)

    visit(tree, tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        scope = scope_of[node]
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


HEAVY = ("numpy", "scipy")


def _load_time_heavy_imports(source):
    """(line, module) of each numpy or scipy import run when the module is
    loaded: anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            found.extend((child.lineno, name) for name in names
                         if name.split(".")[0] in HEAVY)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_load_time_numpy_or_scipy(path):
    assert _load_time_heavy_imports(path.read_text()) == []


def test_checker_sees_module_and_function_imports():
    source = ("import math\nimport os.path\nfrom x import a, b as c\n"
              "def f():\n    from y import d, e\n    return e, c\n"
              "def g():\n    return d, os\n")
    assert _unused_imports(source) == [(1, "math"), (3, "a"), (5, "d")]


def test_heavy_import_checker_skips_function_bodies():
    source = ("import numpy as np\nfrom scipy.optimize import milp\n"
              "import numbers\nclass A:\n    import scipy\n"
              "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
              "def f():\n    import numpy\n    return numpy\n")
    assert _load_time_heavy_imports(source) == [
        (1, "numpy"), (2, "scipy.optimize"), (5, "scipy"), (7, "numpy.linalg")]


def test_decision_loads_only_its_modules():
    # a fresh interpreter deciding one small host, as the benchmark's set-up
    # does, compiles these modules and nothing heavy
    code = ("import sys\n"
            "from simonovits.graph import complete_graph, graph_from_spec\n"
            "from simonovits.solvers import is_simonovits\n"
            "v = is_simonovits(complete_graph(5), graph_from_spec('triangle'))\n"
            "assert v.decision == 'yes'\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0]\n"
            "      in ('simonovits', 'numpy', 'scipy', 'dataclasses'))))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert res.stdout.split() == [
        "simonovits", "simonovits.copies", "simonovits.graph",
        "simonovits.patterns", "simonovits.solvers"]
