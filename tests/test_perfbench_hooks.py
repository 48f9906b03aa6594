"""Every library name that the benchmark under perfbench/ uses must keep
resolving, and a traced pass of every workload must be correct.

The tracer patches names from outside when a traced benchmark run starts,
and the workloads call the library through its module attributes; a
renamed or removed one would otherwise surface only at benchmark time.
"""

import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under perfbench/
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)


def test_tracer_hooks_resolve():
    tracer = _perfbench_module("tracer")
    for mname, target, _metric, _kind in tracer.HOOKS:
        mod = importlib.import_module(mname)
        if "." in target:
            cls_name, meth = target.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{mname}.{target}"
        else:
            assert callable(getattr(mod, target)), f"{mname}.{target}"
    linalg = importlib.import_module("dslie.linalg")
    for entry in tracer.RREF_ENTRIES:
        assert callable(getattr(linalg, entry)), f"dslie.linalg.{entry}"
    fields = importlib.import_module("dslie.fields")
    for cls_name, _kind in tracer.FIELD_CLASSES:
        for op in tracer.FIELD_OPS:
            assert op in vars(getattr(fields, cls_name)), f"{cls_name}.{op}"


def test_workload_private_import_resolves():
    from dslie.audit import _parse_weight_entry
    assert callable(_parse_weight_entry)


def test_workload_library_names_resolve():
    workloads = _perfbench_module("workloads")
    workloads.reset_library_caches()
    assert callable(workloads.build.parse_sdim)
    # every dslie.<module>.<name> the workloads reach through a module attribute
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    mods = {name: mod for name, mod in vars(workloads).items()
            if getattr(mod, "__name__", "").startswith("dslie.") and hasattr(mod, "__file__")}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in mods}
    assert ("build", "parse_sdim") in used
    for mod, attr in sorted(used):
        assert hasattr(mods[mod], attr), f"{mods[mod].__name__}.{attr}"


def _one_pass(workloads, name, cache_dir, tracer=None):
    """Set the workload up and run its pool once with op seed 0, under the
    tracer when one is given; the check line of each op, asserted to pass."""
    workloads.reset_library_caches()
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    try:
        w = workloads.make_workload(name, cache_dir)
        w.setup()
        lines = []
        for op in w.pool:
            ok, line = w.check(op, 0, w.run(op, 0))
            assert ok, line
            lines.append(line)
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    return lines


@pytest.mark.parametrize("name", ["ds-exceptional", "classical-tables", "defect-sweep",
                                  "build-catalog"])
def test_traced_pass_is_correct(name, tmp_path):
    """What `perfbench/run.py --trace 1` calls correct: every op passes its
    check, every layer counter of the workload is nonzero, and the traced
    check lines are the untraced ones."""
    tracer = _perfbench_module("tracer")
    workloads = _perfbench_module("workloads")
    before = sorted(os.listdir(PERFBENCH))
    tr = tracer.Tracer()
    traced = _one_pass(workloads, name, str(tmp_path / "traced"), tr)
    values = tr.metrics()
    assert [m for m in tracer.HEAVY[name] if not values.get(m)] == []
    assert traced == _one_pass(workloads, name, str(tmp_path / "plain"))
    assert sorted(os.listdir(PERFBENCH)) == before
