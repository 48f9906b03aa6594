"""Per-layer tracing of the dslie package from outside its code.

The tracer wraps public functions and methods of the modules under
``src/dslie`` and records, per wrapped name:

* span hooks   -- one span per call (id, parent id, name, start, end, op id),
                  kept in memory and written out by ``dump``; calls,
                  inclusive time and self time are aggregated on the fly;
* timed hooks  -- calls, inclusive and self time, but no stored span (used
                  for the echelon primitives, which run ~10^5 times per op);
* count hooks  -- a call counter only (bracket and field arithmetic, which
                  are too frequent to time).

A function bound into several modules by ``from .x import y`` is replaced
everywhere it is bound, so a call through any of those names is seen.
Self time is a span's duration minus the time of the spans nested in it
(timed hooks count as nested spans).
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

# (module, attribute or Class.method, metric prefix, kind); kind is "span",
# "timed" or "count".  Every entry must resolve, or install() raises.
HOOKS: List[Tuple[str, str, str, str]] = [
    ("dslie.superalgebra", "Superalgebra.check_axioms", "superalgebra.check_axioms", "span"),
    ("dslie.superalgebra", "Superalgebra.structure_series", "superalgebra.structure_series", "span"),
    ("dslie.superalgebra", "Superalgebra.center_rows", "superalgebra.center_rows", "span"),
    ("dslie.superalgebra", "Superalgebra.invariant_forms", "superalgebra.invariant_forms", "span"),
    ("dslie.superalgebra", "Superalgebra.fingerprint", "superalgebra.fingerprint", "span"),
    ("dslie.superalgebra", "Superalgebra.first_derived_mod_center",
     "superalgebra.first_derived_mod_center", "span"),
    ("dslie.superalgebra", "Superalgebra.bracket", "superalgebra.bracket", "count"),
    ("dslie.linalg", "Echelon.add", "linalg.echelon_add", "timed"),
    ("dslie.linalg", "Echelon.reduce", "linalg.echelon_reduce", "timed"),
    ("dslie.ds", "ds_homology", "ds.ds_homology", "span"),
    ("dslie.ds", "identify", "ds.identify", "span"),
    ("dslie.ds", "is_homological", "ds.is_homological", "span"),
    ("dslie.ds", "adjoint_rank", "ds.adjoint_rank", "span"),
    ("dslie.ds", "homological_candidates", "ds.homological_candidates", "span"),
    ("dslie.ds", "isotropic_orthogonal_sets", "ds.isotropic_orthogonal_sets", "span"),
    ("dslie.ds", "defect_report", "ds.defect_report", "span"),
    ("dslie.cartan", "symmetrize", "cartan.symmetrize", "span"),
    ("dslie.cartan", "analyze_diagram", "cartan.analyze_diagram", "span"),
    ("dslie.cartan", "root_ip", "cartan.root_ip", "count"),
    ("dslie.build", "build_g_of_A", "build.build_g_of_A", "span"),
    ("dslie.serialize", "cache_store", "serialize.cache_store", "span"),
    ("dslie.serialize", "cache_load", "serialize.cache_load", "span"),
    ("dslie.modules", "build_irreducible", "modules.build_irreducible", "span"),
    ("dslie.modules", "module_homology", "modules.module_homology", "span"),
    ("dslie.classical", "classical", "classical.classical", "span"),
    ("dslie.references", "ReferenceBank.fingerprint", "references.fingerprint", "span"),
]

# rref backends are timed at the three entry points and named by field kind
RREF_ENTRIES = ("rref", "mat_rank", "mat_nullspace")
RREF_KINDS = ("gf2", "gfp", "generic")
# field arithmetic primitives counted per field class (sub/div are composed
# of these in the base class, so they show up as their parts)
FIELD_CLASSES = (("RationalField", "qq"), ("PrimeField", "gfp"), ("FunctionField", "ratfunc"))
FIELD_OPS = ("add", "mul", "neg", "inv")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = "setup"
        self.spans: List[tuple] = []         # (id, parent, name, start, end, op)
        self.stack: List[list] = []          # frames [id, name, child_time]
        self.active: Counter = Counter()     # open frames per name
        self.calls: Counter = Counter()
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_t: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self.active[name] += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float, record: bool):
        self.stack.pop()
        name = frame[1]
        dur = t1 - t0
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_t[name] += dur - frame[2]
        if not self.active[name]:  # outermost of a recursion: count once
            self.incl[name] += dur
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        if record:
            self.spans.append((frame[0], parent, name, t0, t1, self.op_id))

    def inside(self, name: str) -> bool:
        return self.active[name] > 0

    def timed(self, name: str, fn: Callable, args, kwargs, record: bool):
        frame = self._enter(name)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, t0, perf(), record)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        tracer = self
        post = _POST.get(name)
        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        record = kind == "span"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if post is None:
                return tracer.timed(name, fn, args, kwargs, record)
            pre = post.before(tracer, args) if hasattr(post, "before") else None
            out = tracer.timed(name, fn, args, kwargs, record)
            post(tracer, args, out, pre)
            return out
        return wrapper

    def _wrap_rref(self, fn: Callable) -> Callable:
        tracer = self

        def wrapper(M, *args, **kwargs):
            if not tracer.enabled or (tracer.stack and
                                      tracer.stack[-1][1].startswith("linalg.rref.")):
                return fn(M, *args, **kwargs)  # nested entry: counted by the outer one
            name = f"linalg.rref.{_field_kind(M.field)}"
            tracer.counts[name + ".cells"] += M.nrows * M.ncols
            return tracer.timed(name, fn, (M,) + args, kwargs, True)
        return wrapper

    def _wrap_field_op(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args)
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Replace every module-level binding of ``original`` in dslie.*."""
        n = 0
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "dslie" or mname.startswith("dslie.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        return n

    def _patch_attr(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import importlib
        for mname, target, name, kind in HOOKS:
            mod = importlib.import_module(mname)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                self._patch_attr(cls, meth, self._wrap(name, cls.__dict__[meth], kind))
            else:
                fn = getattr(mod, target)
                if not self._rebind(fn, self._wrap(name, fn, kind)):
                    raise RuntimeError(f"hook {mname}.{target} bound nowhere")
        linalg = importlib.import_module("dslie.linalg")
        for entry in RREF_ENTRIES:
            fn = getattr(linalg, entry)
            self._rebind(fn, self._wrap_rref(fn))
        fields = importlib.import_module("dslie.fields")
        for cls_name, kind in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                self._patch_attr(cls, op, self._wrap_field_op(cls.__dict__[op],
                                                              f"fields.ops.{kind}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        names = {n for _, _, n, k in HOOKS if k != "count"}
        names |= {f"linalg.rref.{k}" for k in RREF_KINDS}
        for n in sorted(names):
            out[f"{n}.calls"] = self.calls[n]
            out[f"{n}.s"] = self.incl[n]
            out[f"{n}.self_s"] = self.self_t[n]
        for _, _, n, k in HOOKS:
            if k == "count":
                out[f"{n}.calls"] = self.counts[n]
        for k in RREF_KINDS:
            out[f"linalg.rref.{k}.cells"] = self.counts[f"linalg.rref.{k}.cells"]
        for _, kind in FIELD_CLASSES:
            out[f"fields.ops.{kind}"] = self.counts[f"fields.ops.{kind}"]
        c = self.counts
        out["ds.candidates.accept_ratio"] = _ratio(c["ds.candidates.accepted"],
                                                   c["ds.candidates.tried"])
        out["ds.defect.ds_per_class"] = _ratio(c["ds.defect.ds_calls"], c["ds.defect.classes"])
        out["build.basis_elems"] = c["build.basis_elems"]
        out["build.brackets"] = c["build.brackets"]
        out["serialize.bytes_written"] = c["serialize.bytes_written"]
        out["references.hit_ratio"] = _ratio(c["references.hits"],
                                             self.calls["references.fingerprint"])
        return out

    def dump(self, path: str):
        """Write the recorded spans as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "op": op}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _field_kind(field) -> str:
    from dslie.fields import PrimeField
    if isinstance(field, PrimeField):
        return "gf2" if field.p == 2 else "gfp"
    return "generic"


# -- per-hook counters derived from arguments and results ----------------------


def _post_is_homological(tracer: Tracer, args, out, pre):
    if tracer.inside("ds.homological_candidates"):
        tracer.counts["ds.candidates.tried"] += 1


def _post_candidates(tracer: Tracer, args, out, pre):
    tracer.counts["ds.candidates.accepted"] += len(out)


def _post_ds_homology(tracer: Tracer, args, out, pre):
    if tracer.inside("ds.defect_report"):
        tracer.counts["ds.defect.ds_calls"] += 1


def _post_defect(tracer: Tracer, args, out, pre):
    tracer.counts["ds.defect.classes"] += out.ndf


def _post_build(tracer: Tracer, args, out, pre):
    tracer.counts["build.basis_elems"] += out.algebra.dim
    tracer.counts["build.brackets"] += len(out.algebra.brackets)


def _post_store(tracer: Tracer, args, out, pre):
    if out:
        tracer.counts["serialize.bytes_written"] += os.path.getsize(out)


class _RefFingerprintPost:
    """Counts ReferenceBank.fingerprint calls answered from the bank's cache."""

    @staticmethod
    def before(tracer: Tracer, args) -> Optional[bool]:
        bank, name = args[0], args[1]
        return name in bank._fps

    def __call__(self, tracer: Tracer, args, out, pre):
        if pre:
            tracer.counts["references.hits"] += 1


_POST = {
    "ds.is_homological": _post_is_homological,
    "ds.homological_candidates": _post_candidates,
    "ds.ds_homology": _post_ds_homology,
    "ds.defect_report": _post_defect,
    "build.build_g_of_A": _post_build,
    "serialize.cache_store": _post_store,
    "references.fingerprint": _RefFingerprintPost(),
}


# -- metric metadata and the coverage check --------------------------------------


def metric_spec(name: str) -> Tuple[str, str]:
    """(unit, better) of a per-layer metric."""
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s", "lower"
    if name in ("ds.candidates.accept_ratio", "references.hit_ratio"):
        return "ratio", "higher"
    if name.endswith("_ratio") or name == "ds.defect.ds_per_class":
        return "ratio", "lower"
    if name == "serialize.bytes_written":
        return "bytes", "lower"
    return "count", "lower"


# Counters that must be nonzero on each workload: every layer is checked on
# the workload where it does its heaviest work.  A zero here means a hook
# missed a binding, not that the layer was idle.
HEAVY: Dict[str, List[str]] = {
    "ds-exceptional": [
        "superalgebra.check_axioms.calls", "superalgebra.structure_series.calls",
        "superalgebra.center_rows.calls", "superalgebra.fingerprint.calls",
        "superalgebra.first_derived_mod_center.calls", "superalgebra.bracket.calls",
        "linalg.echelon_add.calls", "linalg.echelon_reduce.calls",
        "linalg.rref.gf2.calls", "linalg.rref.gfp.calls", "fields.ops.gfp",
        "ds.ds_homology.calls", "ds.identify.calls", "build.build_g_of_A.calls",
        "modules.build_irreducible.calls", "modules.module_homology.calls",
        "references.fingerprint.calls",
    ],
    "classical-tables": [
        "superalgebra.invariant_forms.calls", "superalgebra.fingerprint.calls",
        "superalgebra.bracket.calls", "linalg.rref.generic.calls", "fields.ops.qq",
        "ds.ds_homology.calls", "ds.identify.calls", "classical.classical.calls",
        "references.fingerprint.calls", "references.hit_ratio",
    ],
    "defect-sweep": [
        "superalgebra.invariant_forms.calls", "superalgebra.fingerprint.calls",
        "linalg.rref.generic.calls", "linalg.rref.gfp.calls", "fields.ops.ratfunc",
        "ds.is_homological.calls", "ds.adjoint_rank.calls",
        "ds.homological_candidates.calls", "ds.isotropic_orthogonal_sets.calls",
        "ds.defect_report.calls", "ds.candidates.accept_ratio", "ds.defect.ds_per_class",
        "cartan.symmetrize.calls", "cartan.analyze_diagram.calls", "cartan.root_ip.calls",
    ],
    "build-catalog": [
        "build.build_g_of_A.calls", "build.basis_elems", "build.brackets",
        "serialize.cache_store.calls", "serialize.cache_load.calls",
        "serialize.bytes_written", "modules.build_irreducible.calls",
        "modules.module_homology.calls", "superalgebra.bracket.calls",
    ],
}
