"""Every name a module imports is read somewhere in the scope that imports
it: the module for a top-level import, the function for one inside a
function."""

import ast
import pathlib

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_sees_module_and_function_imports():
    source = ("import math\nimport os.path\nfrom x import a, b as c\n"
              "def f():\n    from y import d, e\n    return e, c\n"
              "def g():\n    return d, os\n")
    assert _unused_imports(source) == [(1, "math"), (3, "a"), (5, "d")]
