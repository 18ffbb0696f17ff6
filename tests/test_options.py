"""Every optional parameter in the package takes two values, every
definition has a caller outside the tests, every stored attribute is read,
and every imported name is used.

An option that the calls in the package and its benchmark give one value
only, or none, is a constant spelled as a parameter; an option that only
the tests vary is one no user run varies, so the tests' calls do not
count.  A call that omits the option gives its default, a literal is its
own value, and any other expression counts as varying.  A function, class
or method that nothing in the package or its benchmark names is code that
only its own tests keep alive.  Both checks match names alone, which can
only hide a finding, never invent one: an `as_dict` method on `Constants`
that nothing calls would pass the caller check, because `as_dict` also
names the methods of `PatternProfile` and `SimonovitsVerdict` that the CLI
calls.  An attribute that the package stores and nothing in it or its
benchmark reads is a result computed to be thrown away; that check matches
names too, so a field named `delta` would pass while `args.delta` is read.
An import that its module never reads, in the package, its tests or its
benchmark, is a dependency that nothing needs."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "simonovits"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
# the package and its benchmark: the calls that give an option its values
RUNS = [ROOT / "src", ROOT / "perfbench"]

# (function, parameter) pairs that keep one value on purpose, with the reason
ALLOWED = {
    ("main", "argv"):
        "the console entry point calls main() and reads sys.argv",
    ("typicality_report", "part_families"):
        "the only input of the report's T2 section",
    ("typicality_report", "qh_instances"):
        "the only input of the report's T5 section",
    ("typicality_report", "pair_list"):
        "the only input of the report's T7 section",
}

VARIES = None           # the value of a non-literal argument


def _value(node):
    """A literal's value, as its repr, or VARIES for any other expression."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return VARIES


def _options(source):
    """(function, parameter, position, default) of each defaulted
    parameter outside dunder methods; position is None for a keyword-only
    parameter, a method's position does not count self, and a default that
    is no literal stands for itself."""
    found = []

    def default(node):
        value = _value(node)
        return "<default %s>" % ast.dump(node) if value is VARIES else value

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
                    first = len(pos) - len(a.defaults)
                    for i, d in enumerate(a.defaults):
                        found.append((name, pos[first + i].arg,
                                      first + i - skip, default(d)))
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            found.append((name, arg.arg, None, default(d)))
                visit(child, False)
                continue
            visit(child, in_class)

    visit(ast.parse(source), False)
    return found


def _calls(sources):
    """{function name: [its calls]} over the sources."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def _given(call, param, pos, default):
    """The value a call gives the parameter; *args or **kwargs may give
    it anything."""
    for kw in call.keywords:
        if kw.arg == param:
            return _value(kw.value)
        if kw.arg is None:
            return VARIES
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return VARIES
        if i == pos:
            return _value(arg)
    return default


def _unset(option_sources, caller_sources):
    """The (function, parameter) pairs that the calls in caller_sources
    give fewer than two values."""
    calls = _calls(caller_sources)
    unset = set()
    for source in option_sources:
        for (func, param, pos, default) in _options(source):
            values = {_given(c, param, pos, default)
                      for c in calls.get(func, ())}
            if VARIES not in values and len(values) < 2:
                unset.add((func, param))
    return sorted(unset)


def _read(paths):
    return [p.read_text() for p in paths]


def _option_sources():
    return (_read(sorted(SRC.glob("*.py"))),
            _read(sorted(p for d in RUNS for p in d.rglob("*.py"))))


def test_every_option_is_set_by_some_call():
    unset = [o for o in _unset(*_option_sources()) if o not in ALLOWED]
    assert unset == []


def test_allowlisted_options_are_still_unset():
    assert set(ALLOWED) <= set(_unset(*_option_sources()))


def test_checker_sees_keyword_positional_and_method_options():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class A:\n    def g(self, x=0, y=0):\n        pass\n"
              "    def __init__(self, z=0):\n        pass\n"
              "def h(u=X):\n    pass\n"
              "f(0, 1)\nf(0, d=4)\nA().g(5)\nh(**{})\n")
    assert _options(source) == [
        ("f", "b", 1, "1"), ("f", "c", 2, "2"), ("f", "d", None, "3"),
        ("g", "x", 0, "0"), ("g", "y", 1, "0"),
        ("h", "u", 0, "<default Name(id='X', ctx=Load())>")]
    assert _unset([source], [source]) == [
        ("f", "b"), ("f", "c"), ("g", "x"), ("g", "y")]


def test_checker_counts_defaults_literals_and_varying_arguments():
    # b: the default, the same literal and a name (varies); c: the default
    # and another literal; d: the default and the same literal; e: a name;
    # g: only ever omitted; m's x: the default, as a literal; h: *args
    source = ("def f(a, b=1, c=2, d=3, *, e=None, g=0):\n    pass\n"
              "class A:\n    def m(self, x=0):\n        pass\n"
              "def h(u=0, v=0):\n    pass\n"
              "f(0)\nf(0, 1, c=5)\nf(0, b, d=3)\nf(0, e=x)\n"
              "A().m(0)\nh(*args)\n")
    assert _unset([source], [source]) == [("f", "d"), ("f", "g"), ("m", "x")]
    # calls elsewhere, such as the tests', give no value at all
    assert _unset([source], [""]) == [
        ("f", "b"), ("f", "c"), ("f", "d"), ("f", "e"), ("f", "g"),
        ("h", "u"), ("h", "v"), ("m", "x")]


# definitions that only tests reach, kept on purpose, with the reason
UNCALLED = {
    "structure.construct_QF": "the acceptance suite builds Q with it",
    "structure.neighbourhood_hypergraph":
        "the acceptance suite builds the fresh-sets hypergraph with it",
    "rigidity.crit_edges": "the acceptance suite's rigidity checks",
    "rigidity.deficit": "the acceptance suite's switching checks",
    "rigidity.equivalence_and_rigidity":
        "the acceptance suite's rigidity checks",
    "solvers.dense_peel": "the acceptance suite's appendix peeling check",
    "solvers.is_unfriendly": "the oracle for local_max_cut's local optimum",
    "structure.check_edge_colouring": "the oracle for vizing_color",
    "graph.blowup_plus": "builds the blown-up test hosts",
    "graph.disjoint_union": "builds the disconnected test hosts",
    "graph.PartTuple.canonical": "the oracle for a rigidity core's parts",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(sources):
    """(qualified name, name, source key, first line, last line) of each
    top-level function and class and each method, dunders left out; a
    source is a (key, module name, text) triple."""
    found = []
    for key, module, text in sources:
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or _is_dunder(node.name):
                continue
            qual = module + "." + node.name
            found.append((qual, node.name, key, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (qual + "." + m.name, m.name, key, m.lineno, m.end_lineno)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(m.name))
    return found


def _names(sources):
    """(name, source key, line) of each identifier, attribute and string
    that equals a name (as in __all__), over the sources; imports do not
    count."""
    found = []
    for key, _, text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                name = node.value
            else:
                continue
            found.append((name, key, node.lineno))
    return found


def _uncalled(def_sources, name_sources, kept=()):
    """Qualified names of the definitions that nothing names outside their
    own body and the bodies of other uncalled definitions.  A kept
    definition is never uncalled, so the names in its body count."""
    defs = _definitions(def_sources)
    names = _names(name_sources)
    dead = set()

    def inside(ref, d):
        _, _, key, first, last = d
        return ref[1] == key and first <= ref[2] <= last

    def named(d):
        return any(ref[0] == d[1] and not inside(ref, d)
                   and not any(inside(ref, x) for x in defs if x[0] in dead)
                   for ref in names)

    changed = True
    while changed:
        changed = False
        for d in defs:
            if d[0] not in dead and d[0] not in kept and not named(d):
                dead.add(d[0])
                changed = True
    return dead


def _package_sources():
    defs = [(str(p), p.stem, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    names = [(str(p), p.stem, p.read_text())
             for d in (ROOT / "src", ROOT / "perfbench")
             for p in sorted(d.rglob("*.py"))]
    return defs, names


def test_every_definition_has_a_caller_outside_the_tests():
    defs, names = _package_sources()
    assert _uncalled(defs, names, kept=UNCALLED) == set()


def test_kept_definitions_still_have_no_caller():
    defs, names = _package_sources()
    assert set(UNCALLED) <= _uncalled(defs, names)


def test_caller_check_follows_dead_code_and_skips_dunders():
    source = ("import os\n"
              "def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def dead():\n    return only_dead()\n"
              "def only_dead():\n    return only_dead()\n"
              "class A:\n    def m(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "def __getattr__(name):\n    pass\n"
              "__all__ = ['A']\n"
              "used()\n")
    src = [("f", "f", source)]
    assert _uncalled(src, src) == {"f.dead", "f.only_dead", "f.A.m"}
    assert _uncalled(src, src, kept={"f.dead"}) == {"f.A.m"}


def _stored(source):
    """Names of each `self.<name> =` store and each annotated class field
    in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            found.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            found.update(s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign)
                         and isinstance(s.target, ast.Name))
    return found


def _read_names(source):
    """Each identifier and attribute that the source reads, not stores,
    and each string, which may name an attribute (as in __slots__)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and \
                not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unread(store_sources, read_sources):
    stored = set().union(*map(_stored, store_sources))
    return stored - set().union(*map(_read_names, read_sources))


def test_every_stored_attribute_is_read():
    stores = _read(sorted(SRC.glob("*.py")))
    reads = _read(sorted(p for d in (ROOT / "src", ROOT / "perfbench")
                         for p in d.rglob("*.py")))
    assert _unread(stores, reads) == set()


def test_attribute_check_sees_stores_fields_and_reads():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass C:\n    used: int = 0\n"
              "    unused: float = 1.0\n"
              "class A:\n    def __init__(self):\n"
              "        self.a, self.b = 1, 2\n        self.c = 3\n"
              "        self.slot = 4\n        self.c += 1\n"
              "    __slots__ = ('slot',)\n"
              "    def m(self):\n        return self.a + C().used\n")
    assert _stored(source) == {"used", "unused", "a", "b", "c", "slot"}
    assert _unread([source], [source]) == {"unused", "b", "c"}


def _unused_imports(source):
    """Names a module imports and never reads: an import binds its alias,
    or the first part of a dotted module name, and a read is any
    identifier or, for a re-export, a string in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return sorted(imported - used)


def test_every_import_is_used():
    unused = {str(p.relative_to(ROOT)): _unused_imports(p.read_text())
              for d in CALLERS for p in sorted(d.rglob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}


def test_import_check_sees_aliases_dotted_names_and_reexports():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "import json as js\nfrom math import pi, tau as t\n"
              "from x import *\n"
              "__all__ = ['pi']\n"
              "def f():\n    import sys\n    return np.e + t\n")
    assert _unused_imports(source) == ["js", "os", "sys"]
