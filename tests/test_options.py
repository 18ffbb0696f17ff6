"""Every optional parameter in the package is set by some call: an option
that no call in the package, its tests or its benchmark passes always takes
its default, so it is a constant spelled as a parameter.  Calls are matched
to definitions by name alone, which can only hide an unset option, never
invent one."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "simonovits"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

# (function, parameter) pairs that stay unset on purpose, with the reason
ALLOWED = {
    ("typicality_report", "qh_instances"):
        "the only input of the report's T5 section",
}


def _options(source):
    """(function, parameter, position) of each defaulted parameter outside
    dunder methods; position is None for a keyword-only parameter, and a
    method's position does not count self."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, True)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    a = child.args
                    pos = a.posonlyargs + a.args
                    skip = 1 if in_class and pos else 0
                    for i, arg in enumerate(pos):
                        if i >= len(pos) - len(a.defaults):
                            found.append((name, arg.arg, i - skip))
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            found.append((name, arg.arg, None))
                visit(child, False)
                continue
            visit(child, in_class)

    visit(ast.parse(source), False)
    return found


def _passed(sources):
    """{function name: (keywords passed, most positional arguments)} over
    every call in the sources; a call with *args or **kwargs passes
    everything."""
    seen = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            kws, most = seen.setdefault(name, (set(), 0))
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = float("inf")
            for kw in node.keywords:
                if kw.arg is None:
                    npos = float("inf")
                    kws.add(None)
                else:
                    kws.add(kw.arg)
            seen[name] = (kws, max(most, npos))
    return seen


def _unset(option_sources, caller_sources):
    seen = _passed(caller_sources)
    unset = []
    for source in option_sources:
        for (func, param, pos) in _options(source):
            kws, most = seen.get(func, (set(), 0))
            if param in kws or None in kws:
                continue
            if pos is not None and most > pos:
                continue
            unset.append((func, param))
    return unset


def _read(paths):
    return [p.read_text() for p in paths]


def test_every_option_is_set_by_some_call():
    options = _read(sorted(SRC.glob("*.py")))
    callers = _read(sorted(p for d in CALLERS for p in d.rglob("*.py")))
    unset = [o for o in _unset(options, callers) if o not in ALLOWED]
    assert unset == []


def test_allowlisted_options_are_still_unset():
    options = _read(sorted(SRC.glob("*.py")))
    callers = _read(sorted(p for d in CALLERS for p in d.rglob("*.py")))
    assert set(ALLOWED) <= set(_unset(options, callers))


def test_checker_sees_keyword_positional_and_method_options():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class A:\n    def g(self, x=0, y=0):\n        pass\n"
              "    def __init__(self, z=0):\n        pass\n"
              "def h(u=0):\n    pass\n"
              "f(0, 1)\nf(0, d=4)\nA().g(5)\nh(**{})\n")
    assert _options(source) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None),
        ("g", "x", 0), ("g", "y", 1), ("h", "u", 0)]
    assert _unset([source], [source]) == [("f", "c"), ("g", "y")]
