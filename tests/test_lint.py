"""Static checks on the library sources: every import in src/dslie is used
and sits at module level, only linalg.py and superalgebra.py import numpy
(and in linalg only the peel of the sparse GF(p) systems uses it), no
module but linalg reads the private rows, kernels or entry points of its
Echelon, every function, method and class it defines is named somewhere,
every CLI option is read by its command's handler, and every parameter
with a default is set by some call.

An import counts as used when the module reads it, lists it in ``__all__``
or mentions it in a string annotation (``-> "GradedSpan"``).  A definition
counts as named when a name, attribute, import or identifier inside a
string (the benchmark's hook table names methods as "Class.method") in
src/, tests/ or perfbench/ spells it; dunder methods are called implicitly.
A definition that only tests/ names belongs in a test helper, so src/ or
perfbench/ must name each one too.
"""

import argparse
import ast
import inspect
import os
import re
import textwrap

import pytest

from dslie import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dslie")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_checker_sees_annotations_and_all():
    src = ("from typing import List, Optional\nimport re\nfrom x import A, B, C\n"
           "__all__ = ['C']\ndef f(a: 'Optional[A]') -> List[int]:\n    pass\n")
    assert unused_imports(src) == [(2, "re"), (3, "B")]


def imported_modules(source: str):
    """The top-level package of every module the source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


NUMPY_MODULES = ["linalg.py", "superalgebra.py"]


def test_numpy_stays_in_linalg_and_superalgebra():
    """The GF(p) array format of the invariance equations stays inside
    linalg and the forms assembly; the homology matrices are sparse rows."""
    users = []
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            if "numpy" in imported_modules(fh.read()):
                users.append(module)
    assert users == NUMPY_MODULES


def test_checker_sees_numpy_imports():
    src = "import numpy as np\nfrom numpy.linalg import norm\nfrom . import numpy\nimport os\n"
    assert imported_modules(src) == {"numpy", "os"}
    assert imported_modules("from numpy import zeros\n") == {"numpy"}


def numpy_definitions(source: str):
    """Every top-level function and class whose signature or body names np."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node)))


def test_numpy_stays_in_the_peel():
    """In linalg only the peel of a sparse GF(p) system works on arrays; its
    core leaves as element rows, so Matrix and Echelon take one vector
    format and every elimination goes through Echelon.add."""
    with open(os.path.join(SRC, "linalg.py")) as fh:
        assert numpy_definitions(fh.read()) == ["_firsts", "nullspace_mod_p", "peel_mod_p"]


def test_checker_sees_numpy_definitions():
    src = ("import numpy as np\nclass K:\n    def m(self):\n        return np.zeros(1)\n"
           "def typed(a: np.ndarray) -> int:\n    return 0\ndef plain(np_rows):\n"
           "    return np_rows\nZ = np.int64\n")
    assert numpy_definitions(src) == ["K", "typed"]


def private_members(source: str, cls: str):
    """The private names of a class: its _-prefixed methods (dunders
    excepted) and the self._x attributes its methods assign."""
    node = next(n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == cls)
    names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    for sub in ast.walk(node):
        targets = (sub.targets if isinstance(sub, ast.Assign)
                   else [sub.target] if isinstance(sub, (ast.AnnAssign, ast.AugAssign)) else [])
        for t in targets:
            for e in (t.elts if isinstance(t, ast.Tuple) else [t]):
                if (isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
                        and e.value.id == "self"):
                    names.add(e.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def foreign_reads(source: str, names):
    """(line, name) of every x.name with x not self, name in names."""
    return sorted((n.lineno, n.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in names
                  and not (isinstance(n.value, ast.Name) and n.value.id == "self"))


def test_echelon_row_format_stays_in_linalg():
    """Echelon's rows, kernels and private entry points are linalg's alone:
    the row format is decided there, and every other module hands the
    engine elements."""
    with open(os.path.join(SRC, "linalg.py")) as fh:
        private = private_members(fh.read(), "Echelon")
    assert {"_rows", "_add", "_reduce", "_update"} <= private
    for module in MODULES:
        if module != "linalg.py":
            with open(os.path.join(SRC, module)) as fh:
                assert foreign_reads(fh.read(), private) == [], module


def test_checker_sees_private_reads():
    src = ("class E:\n    def __init__(self):\n        self._rows, self.pivots = {}, []\n"
           "        self._n: int = 0\n    def _add(self, v):\n        self._rows[0] = v\n"
           "    def __len__(self):\n        return 0\n    def rows(self):\n"
           "        return self._rows\n")
    private = private_members(src, "E")
    assert private == {"_rows", "_n", "_add"}
    use = "def f(e, g):\n    e._add({})\n    self._rows = 1\n    return g.rows, e._rows[0]\n"
    assert foreign_reads(use, private) == [(2, "_add"), (4, "_rows")]


def local_imports(source: str):
    """(line, module) of every import inside a function or class body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Import):
                    out |= {(sub.lineno, a.name) for a in sub.names}
                elif isinstance(sub, ast.ImportFrom):
                    out.add((sub.lineno, "." * sub.level + (sub.module or "")))
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_local_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert local_imports(fh.read()) == []


def test_checker_sees_local_imports():
    src = ("import os\nclass K:\n    import re\n    def m(self):\n"
           "        from math import gcd\n        def inner():\n            import json\n"
           "        return gcd\ndef f():\n    from . import x\n    return x\n")
    assert local_imports(src) == [(3, "re"), (5, "math"), (7, "json"), (10, ".")]


def defined_names(source: str):
    """(line, name) of every function, method and class, nested ones too."""
    return sorted((n.lineno, n.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (n.name.startswith("__") and n.name.endswith("__")))


def named(source: str):
    """Every identifier the source reads, imports or spells inside a string;
    the name on a def or class line does not count."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out |= set(n.name.split(".")) | {n.asname}
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out |= set(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def _sources(tops=("src", "tests", "perfbench")):
    for top in tops:
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        yield fh.read()


def unnamed_definitions(tops):
    """(module, line, name) of every definition in src/dslie that no source
    under the given top-level directories names."""
    names = set().union(*map(named, _sources(tops)))
    out = []
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            out += [(module, line, name) for line, name in defined_names(fh.read())
                    if name not in names]
    return out


def test_no_dead_definitions():
    assert unnamed_definitions(("src", "tests", "perfbench")) == []


def test_no_test_only_definitions():
    """The library and the benchmark name every definition; what only the
    tests use lives under tests/."""
    assert unnamed_definitions(("src", "perfbench")) == []


def test_checker_sees_calls_attributes_and_strings():
    lib = ("class Kept:\n    def by_attr(self):\n        pass\n"
           "    def by_hook(self):\n        pass\n    def __len__(self):\n        return 0\n"
           "def by_call():\n    def inner():\n        pass\n    return Kept().by_attr()\n"
           "def orphan():\n    pass\n")
    hooks = "HOOKS = ['Kept.by_hook']\nby_call()\n"
    used = named(lib) | named(hooks)
    assert [(line, name) for line, name in defined_names(lib) if name not in used] == \
        [(9, "inner"), (12, "orphan")]


def test_checker_sees_test_only_definitions():
    lib = ("def by_lib():\n    pass\ndef by_bench():\n    pass\n"
           "def by_test():\n    pass\nby_lib()\n")
    bench = "HOOKS = ['by_bench']\n"
    test = "by_test()\n"
    outside_tests = named(lib) | named(bench)
    assert [name for _, name in defined_names(lib) if name not in outside_tests] == ["by_test"]
    assert [name for _, name in defined_names(lib)
            if name not in outside_tests | named(test)] == []


def unread_options(parser: argparse.ArgumentParser):
    """(command, dest) of every subcommand option its handler never reads
    as ``args.<dest>``; ``_cache_dir(args)`` reads ``cache_dir``."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = []
    for command, sub in subs.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("func"))))
        read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "_cache_dir" for n in ast.walk(tree)):
            read.add("cache_dir")
        out += [(command, a.dest) for a in sub._actions
                if a.dest != "help" and a.dest not in read]
    return out


def test_every_cli_option_is_read():
    assert unread_options(cli.make_parser()) == []


def _toy_handler(args):
    return args.used


def test_checker_sees_unread_option():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="command")
    go = sub.add_parser("go")
    go.add_argument("--used")
    go.add_argument("--unread")
    go.set_defaults(func=_toy_handler)
    assert unread_options(ap) == [("go", "unread")]


def defaulted_parameters(source: str):
    """(line, callee, parameter, position) of every parameter with a default
    of every function and method.  The callee is the name a call spells:
    the class name for __init__.  The position is the parameter's index
    among the positional arguments a call passes (self or cls not
    counted), None for a keyword-only one."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    owner[item] = None if static else node.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if owner.get(node) is not None:
            positional = positional[1:]
        callee = owner[node] if node.name == "__init__" and node in owner else node.name
        first = len(positional) - len(args.defaults)
        out += [(node.lineno, callee, a.arg, first + t)
                for t, a in enumerate(positional[first:])]
        out += [(node.lineno, callee, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return sorted(out)


def calls(source: str):
    """(callee, number of positional arguments, keyword names, whether a
    *args or **kwargs may set any parameter) of every call to a name or an
    attribute."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            callee = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            star = (any(isinstance(a, ast.Starred) for a in n.args)
                    or any(k.arg is None for k in n.keywords))
            out.append((callee, len(n.args), {k.arg for k in n.keywords}, star))
    return out


def unset_parameters(library: dict, callers) -> list:
    """(module, line, callee, parameter) of every defaulted parameter in the
    library sources (module -> source) that no call in the caller sources
    sets by keyword or by position, nor through *args or **kwargs."""
    by_callee = {}
    for source in callers:
        for callee, npos, keywords, star in calls(source):
            by_callee.setdefault(callee, []).append((npos, keywords, star))
    return [(module, line, callee, name)
            for module, source in library.items()
            for line, callee, name, pos in defaulted_parameters(source)
            if not any(star or name in keywords or (pos is not None and npos > pos)
                       for npos, keywords, star in by_callee.get(callee, []))]


def test_every_defaulted_parameter_is_set_somewhere():
    """A parameter with a default that no caller sets is a knob with one
    value: it belongs in the body as a constant."""
    library = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            library[module] = fh.read()
    assert unset_parameters(library, list(_sources())) == []


def test_checker_sees_unset_parameters():
    lib = ("class K:\n    def __init__(self, a, b=1, *, c=2):\n        pass\n"
           "    def m(self, x=0, y=0):\n        pass\n"
           "    @staticmethod\n    def s(x=0):\n        pass\n"
           "def f(p, q=1, r=2):\n    pass\n"
           "def g(u=0):\n    pass\n")
    use = ("K(1, 2)\nK(0).m(5)\nK.s(1)\nf(1, r=3)\nargs = ()\ng(*args)\n")
    assert unset_parameters({"lib.py": lib}, [lib, use]) == [
        ("lib.py", 2, "K", "c"), ("lib.py", 4, "m", "y"), ("lib.py", 9, "f", "q")]
    assert unset_parameters({"lib.py": lib}, [use, "K(0, c=1, **{})\nf(0, 1)\nK(0).m(y=1)\n"]) == []
