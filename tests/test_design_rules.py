"""The design rules.  Each is a function of the parsed files of the library
(src/fstlearn), the benchmark (perfbench) and the tests, keyed by path from
the repository root, that returns its findings as ``file:line: what``.  Only
a name that the library or the benchmark uses counts as used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIB, BENCH, TESTS = "src/fstlearn/", "perfbench/", "tests/"
INIT = LIB + "__init__.py"
# "cache" alone is a common word, so it counts only read off functools
CACHES = {"lru_cache", "cached_property"}


@pytest.fixture(scope="module")
def trees():
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
            for top in (LIB, BENCH, TESTS) for p in sorted((ROOT / top).rglob("*.py"))}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _files(trees, *tops):
    return [(p, tree) for p, tree in trees.items() if p.startswith(tops or LIB)]


def uses(trees, init=False):
    """The names of the library's and the benchmark's Name and Attribute nodes
    ("name", "attr"), of those that read ("name read", "attr read"), and their
    string constants ("str").  __init__.py counts only with init: a re-export
    there is no use."""
    found = {kind: set() for kind in ("name", "name read", "attr", "attr read", "str")}
    for p, tree in _files(trees, LIB, BENCH):
        for n in ast.walk(tree) if init or p != INIT else ():
            if isinstance(n, (ast.Name, ast.Attribute)):
                kind, name = ("name", n.id) if isinstance(n, ast.Name) else ("attr", n.attr)
                found[kind].add(name)
                if isinstance(n.ctx, ast.Load):
                    found[kind + " read"].add(name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                found["str"].add(n.value)
    return found


def no_assert(trees):
    """python -O strips asserts; library invariants raise InvariantError."""
    return [f"{p}:{n.lineno}" for p, tree in _files(trees) for n in ast.walk(tree)
            if isinstance(n, ast.Assert)]


def no_test_only_code(trees):
    """A top-level function or class of the library, or a method of a library
    class other than a dunder, that nothing names serves only the tests, whose
    helpers live under tests/.  A method is named only by an attribute or a
    string, so a local variable of the same name does not hide it."""
    u = uses(trees)
    member = u["attr"] | u["str"]
    return [f"{p}:{n.lineno}: {n.name}" for p, tree in _files(trees) for top in tree.body
            for n, used in [(top, u["name"] | member),
                            *((m, member) for m in (top.body if isinstance(top, ast.ClassDef) else ()))]
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n.name not in used and not _dunder(n.name)]


def no_unused_imports(trees):
    """A module-level import of the library or the tests that its module
    never names is dead; a name listed in __all__ is a re-export, and counts
    as named."""
    found = []
    for p, tree in _files(trees, LIB, TESTS):
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(e.value for n in tree.body if isinstance(n, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in n.targets) for e in n.value.elts)
        found += [f"{p}:{n.lineno}: {name}" for n in tree.body
                  if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"
                  for name in (a.asname or a.name.split(".")[0] for a in n.names) if name not in used]
    return found


def no_write_only_private_attributes(trees):
    """A private attribute that the library stores on self but that no
    attribute read or string constant in the library or the benchmark names
    is upkeep for nothing; a name in __slots__ counts as read."""
    u = uses(trees, init=True)
    read = u["attr read"] | u["str"]
    return [f"{p}:{n.lineno}: self.{n.attr}" for p, tree in _files(trees) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and n.attr.startswith("_") and n.attr not in read]


def no_unused_module_names(trees):
    """A top-level assignment of the library that no name read, attribute or
    string constant in the library or the benchmark names is a leftover."""
    u = uses(trees)
    used = u["name read"] | u["attr"] | u["str"]
    return [f"{p}:{n.lineno}: {t.id}" for p, tree in _files(trees) for n in tree.body
            if isinstance(n, (ast.Assign, ast.AnnAssign))
            for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
            for t in ast.walk(target)
            if isinstance(t, ast.Name) and t.id not in used and not _dunder(t.id)]


def no_unused_parameters(trees):
    """A parameter of a library function or method, nested ones included,
    that its body never names is an option that changes nothing; dunders
    keep the signature the language gives them."""
    found = []
    for p, tree in _files(trees):
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) or _dunder(f.name):
                continue
            a = f.args
            named = {n.id for stmt in f.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [f"{p}:{f.lineno}: {f.name}({arg.arg})"
                      for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if arg is not None and arg.arg not in named]
    return found


def no_collector_control(trees):
    """The cyclic garbage collector's settings are the calling process's
    state: the library neither imports gc nor names one of its attributes."""
    return [f"{p}:{n.lineno}: {ast.unparse(n)}" for p, tree in _files(trees) for n in ast.walk(tree)
            if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "gc" for a in n.names)
            or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "gc" and not n.level
            or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "gc"]


def no_process_wide_caches(trees):
    """A cache lives on the immutable value it derives from, as a machine's
    adjacency and subset table do: the library neither uses functools' cache
    decorators nor rebinds a module-level name from a function."""
    found = []
    for p, tree in _files(trees):
        functools = {"functools"} | {a.asname for n in ast.walk(tree) if isinstance(n, ast.Import)
                                     for a in n.names if a.name == "functools" and a.asname}
        found += [f"{p}:{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
                  if isinstance(n, ast.Global)
                  or isinstance(n, ast.ImportFrom) and n.module == "functools" and not n.level
                  and any(a.name in CACHES | {"cache"} for a in n.names)
                  or isinstance(n, ast.Attribute) and (n.attr in CACHES or n.attr == "cache"
                  and isinstance(n.value, ast.Name) and n.value.id in functools)
                  or isinstance(n, ast.Name) and n.id in CACHES]
    return found


# For each rule, files that break it, and what it reports.  A use of a name
# in tests/ or in __init__.py does not hide the violation.
M, T = LIB + "m.py", TESTS + "t.py"
PLANTED = {
    no_assert: ({M: "assert x\n"}, [f"{M}:1"]),
    no_test_only_code: ({M: "def f(): pass\nclass C:\n    def g(self):\n        g = C\n",
                         INIT: "from .m import f\n__all__ = ['f']\n", T: "C().g()\n"}, [f"{M}:1: f", f"{M}:3: g"]),
    no_unused_imports: ({M: "from __future__ import annotations\nimport os.path\n",
                         T: "from a import b as c, d\nimport e\n__all__ = ['d']\nb\n"},
                        [f"{M}:2: os", f"{T}:1: c", f"{T}:2: e"]),
    no_write_only_private_attributes: (
        {M: "class C:\n    __slots__ = ('_k',)\n    def f(self):\n        self._a = self._k = self.b = 1\n",
         T: "C()._a\n"}, [f"{M}:4: self._a"]),
    no_unused_module_names: ({M: "A = 1\nB: int = 2\n(C, D), __x__ = E = F()\nD\ndef f():\n    B = C\n",
                              INIT: "from .m import A\nA\n", T: "from fstlearn.m import B\nB\n"},
                             [f"{M}:1: A", f"{M}:2: B", f"{M}:3: E"]),
    no_unused_parameters: ({M: "def f(a, /, b, *c, d, **e):\n    def g(h):\n        return b\n    return g\n"
                               "def find_ambiguity(t, st):\n    return st\n"},
                           [f"{M}:1: f({x})" for x in "adce"] + [f"{M}:5: find_ambiguity(t)",
                                                                f"{M}:2: g(h)"]),
    no_collector_control: ({M: "import gc.x as y\nfrom gc import collect\nfrom .gc import z\ngc.disable()\n"},
                           [f"{M}:1: import gc.x as y", f"{M}:2: from gc import collect", f"{M}:4: gc.disable"]),
    no_process_wide_caches: ({M: "import functools as ft\nfrom functools import cache\n@ft.cache\ndef f():\n"
                                 "    global X\nlru_cache\nobj.cached_property\nobj.cache\n"},
                             [f"{M}:2: from functools import cache", f"{M}:5: global X", f"{M}:3: ft.cache",
                              f"{M}:6: lru_cache", f"{M}:7: obj.cached_property"]),
}
RULES = list(PLANTED)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_source_keeps_the_rule(rule, trees):
    assert rule(trees) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_rule_reports_a_planted_violation(rule):
    files, findings = PLANTED[rule]
    assert rule({p: ast.parse(text) for p, text in files.items()}) == findings
