"""Static checks on the library sources: every import in src/dslie is used
and sits at module level, only linalg.py and superalgebra.py import numpy
(and in linalg only the array paths use it), the array paths of the
Jacobi sums, the center and the forms test no Field class (only
linalg.array_ops does), no
module but linalg reads the private rows, kernels or entry points of its
Echelon, no code outside Echelon's methods writes its rows, pivots or
column index, no loop copies a running sum through el_add or el_addmul,
only references.py reaches catalog.build_catalog_algebra, no module
holds an assert statement,
every function, method and class it defines is named somewhere,
every CLI option is read by its command's handler, and every parameter
with a default is set by some call.

An import counts as used when the module reads it, lists it in ``__all__``
or mentions it in a string annotation (``-> "GradedSpan"``).  A definition
counts as named when a name, attribute, import or identifier inside a
string other than a docstring (the benchmark's hook table names methods
as "Class.method") in src/, tests/ or perfbench/ spells it; dunder methods
are called implicitly.
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
    """Arrays stay inside linalg and superalgebra: the systems of the
    center and the forms, and the join, keys and sums of the Jacobi
    contraction, on every field; the homology matrices are sparse rows."""
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
    """In linalg only the array paths work on arrays: the field's scalar ops
    (array_ops), the sums by key and the COO nullspace with its peel and
    its whole-system rows.  Their systems leave as element rows, so Matrix
    and Echelon take one vector format and every elimination goes through
    Echelon.add."""
    with open(os.path.join(SRC, "linalg.py")) as fh:
        assert numpy_definitions(fh.read()) == ["_element_rows", "_exact_ops", "_firsts",
                                                "array_ops", "nullspace_coo", "peel_mod_p",
                                                "sum_by_key"]


FIELD_CLASSES = {"Field", "PrimeField", "RationalField", "FunctionField"}
# the array paths, which differ by field only in linalg.array_ops' scalar ops
ONE_ARRAY_PATH = {
    "superalgebra.py": ["_constants", "_failing_sums", "_form_equations", "center_rows",
                        "invariant_forms"],
    "linalg.py": ["nullspace_coo", "sum_by_key"],
}


def field_dispatches(source: str, names):
    """(function, line) of every isinstance test on a Field class (alone or
    in a tuple) inside the functions or methods of the given names, and
    (name, None) for each name that the source does not define."""
    found = {n.name: n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in names}
    out = [(name, None) for name in names if name not in found]
    for name, fn in found.items():
        for n in ast.walk(fn):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "isinstance" and len(n.args) == 2):
                kinds = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
                if any((k.id if isinstance(k, ast.Name) else getattr(k, "attr", None))
                       in FIELD_CLASSES for k in kinds):
                    out.append((name, n.lineno))
    return sorted(out, key=str)


@pytest.mark.parametrize("module", sorted(ONE_ARRAY_PATH))
def test_array_paths_do_not_name_the_field(module):
    """The Jacobi sums, the center and the invariance equations take one
    array path on every field: linalg.array_ops is the only place that
    tells the fields apart."""
    with open(os.path.join(SRC, module)) as fh:
        assert field_dispatches(fh.read(), ONE_ARRAY_PATH[module]) == []


def test_checker_sees_field_dispatches():
    src = ("class G:\n    def center_rows(self):\n        if isinstance(self.f, PrimeField):\n"
           "            return 1\n        return isinstance(self.f, int)\n"
           "def sums(f):\n    def inner():\n"
           "        return isinstance(f, (int, fields.RationalField))\n    return inner\n"
           "def other(f):\n    return isinstance(f, Field)\n")
    assert field_dispatches(src, ["center_rows", "sums", "gone"]) == [
        ("center_rows", 3), ("gone", None), ("sums", 8)]


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


ROW_STATE = ("_rows", "_combos", "_holders", "pivots")  # Echelon's rows and their index
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
            "remove", "setdefault", "sort", "update"}


def state_writes(source: str, names, cls: str):
    """(line, name) of every write to x.name, name in names, outside the
    methods of the class cls: an assignment, augmented assignment or del
    whose target is x.name or an item of it, and a call of a mutating
    method (list, dict or set) on x.name or an item of it."""
    tree = ast.parse(source)
    inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
              for n in ast.walk(c)}

    def state(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.attr if isinstance(node, ast.Attribute) and node.attr in names else None

    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            targets = [node.func.value]
        for t in targets:
            for e in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]):
                if state(e):
                    out.add((node.lineno, state(e)))
    return sorted(out)


def test_only_echelon_writes_its_rows():
    """Nothing but Echelon's own methods assigns or edits its rows, combos,
    pivots or column index: the index stays right only if every row enters
    through _add.  An image echelon assembled by assigning _rows and
    pivots next to the indexed Echelon gave wrong homologies."""
    with open(os.path.join(SRC, "linalg.py")) as fh:
        echelon = next(n for n in ast.parse(fh.read()).body
                       if isinstance(n, ast.ClassDef) and n.name == "Echelon")
    init = next(f for f in echelon.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    assigned = {t.attr for n in ast.walk(init) if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                if isinstance(t, ast.Attribute)}
    assert set(ROW_STATE) <= assigned  # the names still are Echelon's row state
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            assert state_writes(fh.read(), ROW_STATE, "Echelon") == [], module


def test_checker_sees_state_writes():
    src = ("def kernel_mod_image(f, image):\n    out = Echelon(f, 3)\n"
           "    out.pivots = sorted(image)\n    out._rows = dict(image)\n"
           "    out._combos, n = {c: {} for c in out.pivots}, 0\n    return out\n"
           "class Echelon:\n    def copy(self):\n        out = Echelon(self.field, 3)\n"
           "        out._rows, out.pivots = dict(self._rows), list(self.pivots)\n"
           "        self._holders[0].add(1)\n        return out\n"
           "def g(e):\n    e._holders[3].discard(0)\n    e.pivots.append(1)\n"
           "    del e._rows[0]\n    e.pivots += [2]\n    e._rows[1][2] = 0\n"
           "    e.rows.append(e._rows[0].copy())\n    return sorted(e.pivots), e._holders.get(1)\n")
    assert state_writes(src, ROW_STATE, "Echelon") == [
        (3, "pivots"), (4, "_rows"), (5, "_combos"), (14, "_holders"), (15, "pivots"),
        (16, "_rows"), (17, "pivots"), (18, "_rows")]


SUMMING = {"el_add", "el_addmul"}  # each returns a new dict: a copy of its first sum


def running_sums(source: str):
    """(line, name) of every assignment inside a loop (for or while) to a
    name that its value both reads and passes through a call of el_add or
    el_addmul: a running sum that copies its partial sum on every step."""
    out = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            sums = any(isinstance(c, ast.Call) and
                       (c.func.id if isinstance(c.func, ast.Name) else
                        getattr(c.func, "attr", None)) in SUMMING
                       for c in ast.walk(node.value))
            if sums and any(isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(node.value)):
                out.add((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_running_sum_copies(module):
    """A sum of many terms is one el_sum (or one accumulator dict), not a
    loop that copies its partial sum through el_add or el_addmul on every
    term: in bracket and square that copy was a quarter of the defect
    sweep's time."""
    with open(os.path.join(SRC, module)) as fh:
        assert running_sums(fh.read()) == []


def test_checker_sees_running_sums():
    src = ("def f(fld, us, rows):\n    out = acc = {}\n    for u in us:\n"
           "        out = el_add(fld, out, u)\n    acc = el_add(fld, out, out)\n"
           "    while us:\n"
           "        rows = [sa.el_addmul(fld, r, 1, v) for r, v in zip(rows, us.pop())]\n"
           "        tmp = el_addmul(fld, acc, 1, out)\n"
           "        acc = el_sum(fld, [(1, acc), (1, out)])\n"
           "    return out, rows, tmp, acc\n")
    assert running_sums(src) == [(4, "out"), (7, "rows")]


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


def assert_statements(source: str):
    """Lines of every assert statement."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    """A check in the library raises its own error: python -O drops an
    assert, and defect_report's rank check vanished with it."""
    with open(os.path.join(SRC, module)) as fh:
        assert assert_statements(fh.read()) == []


def test_checker_sees_assert_statements():
    src = ("assert True\ndef f(x):\n    if x:\n        assert x > 0, 'positive'\n"
           "    return 'assert x'\nclass K:\n    def m(self):\n        assert self\n")
    assert assert_statements(src) == [1, 4, 8]


def mentions(source: str, name: str):
    """Lines that read, call, or import the name; a def of it does not
    count, nor does a string that spells it."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if ((isinstance(n, ast.Name) and n.id == name)
                or (isinstance(n, ast.Attribute) and n.attr == name)
                or (isinstance(n, (ast.Import, ast.ImportFrom))
                    and any(name in a.name.split(".") for a in n.names))):
            out.add(n.lineno)
    return sorted(out)


def test_only_the_reference_bank_builds_catalog_entries():
    """Every named algebra at a characteristic is made once, by
    references.ReferenceBank: no other library module reaches
    catalog.build_catalog_algebra (tests and the benchmark may).  The audit
    and the bank each kept their own builds and built g(2,3) and e(7,7)
    twice."""
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            lines = mentions(fh.read(), "build_catalog_algebra")
        assert bool(lines) == (module == "references.py"), (module, lines)


def test_checker_sees_mentions():
    src = ("from .catalog import build_catalog_algebra as bca, all_entries\n"
           "import dslie.catalog\n"
           "def build_catalog_algebra(key):\n    return key\n"
           "def f(k):\n    b = dslie.catalog.build_catalog_algebra(k, 2)\n"
           "    g = build_catalog_algebra\n    return 'build_catalog_algebra', b, g\n")
    assert mentions(src, "build_catalog_algebra") == [1, 6, 7]
    assert mentions("import dslie.build_catalog_algebra\n", "build_catalog_algebra") == [1]


def defined_names(source: str):
    """(line, name) of every function, method and class, nested ones too."""
    return sorted((n.lineno, n.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (n.name.startswith("__") and n.name.endswith("__")))


def named(source: str):
    """Every identifier the source reads, imports or spells inside a string
    that is not a docstring (of the module, a class or a function); the
    name on a def or class line does not count."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, scopes) and ast.get_docstring(n, clean=False) is not None}
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out |= set(n.name.split(".")) | {n.asname}
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
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


def test_checker_skips_docstrings():
    lib = ('"""Mentions by_module."""\nclass K:\n    """Mentions by_class."""\n'
           '    def m(self):\n        """Mentions by_method."""\n        return "by_string"\n'
           'def by_module():\n    pass\ndef by_class():\n    pass\n'
           'def by_method():\n    pass\ndef by_string():\n    pass\n')
    used = named(lib) | named("K().m()\n")
    assert [name for _, name in defined_names(lib) if name not in used] == \
        ["by_module", "by_class", "by_method"]


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
