"""Every library name that perfbench/tracer.py hooks must keep resolving.

The tracer patches these names from outside when a traced benchmark run
starts; a renamed or removed one would otherwise surface only then.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under perfbench/
    try:
        return importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)


def test_tracer_hooks_resolve():
    tracer = _tracer()
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
