"""Command-line front end: build algebras, run DS computations and sweeps,
print defect reports and summary tables, audit the bundled expected values.

Exit codes: 0 success, 1 usage error, 2 computation failure,
3 audit discrepancy outside the documented whitelist.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import os
import sys
from typing import List, Optional, Tuple

from .audit import (DISCREPANCY, DOCUMENTED, MATCH, Auditor, _parse_weight_entry,
                    load_expected, run_audit)
from .build import BuildError
from .cartan import symmetrize
from .catalog import all_entries
from .classical import parse_key
from .ds import DSError, defect_report, ds_homology, identify
from .fields import FieldSpec, UsageError
from .modules import build_irreducible, module_homology
from .references import ReferenceBank
from .serialize import CacheError, ensure_cache_dir, serialize_build
from .tables import chain_table

CACHE_ENV = "DSLIE_CACHE_DIR"
TABLE_MAX_N, TABLE_MAX_B = 4, 12  # the range of the shipped square and shifted tables


def _cache_dir(args) -> Optional[str]:
    """The cache directory of --cache-dir or $DSLIE_CACHE_DIR, created if
    needed; one that cannot be created or written is a usage error."""
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or None
    if cache_dir:
        ensure_cache_dir(cache_dir)
    return cache_dir


def _emit(rows: List[dict], fmt: str):
    stream = sys.stdout
    if not rows:
        return
    cols = list(rows[0].keys())
    if fmt == "records":
        for r in rows:
            stream.write(json.dumps(r, sort_keys=True) + "\n")
    elif fmt == "csv":
        w = csv_mod.writer(stream)
        w.writerow(cols)
        for r in rows:
            w.writerow([r.get(c, "") for c in cols])
    else:
        widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows))
                  for c in cols}
        stream.write("  ".join(str(c).ljust(widths[c]) for c in cols).rstrip() + "\n")
        for r in rows:
            stream.write("  ".join(str(r.get(c, "")).ljust(widths[c])
                                   for c in cols).rstrip() + "\n")


def _sdim_str(sd) -> str:
    return f"{sd[0]}|{sd[1]}"


_DEFAULT_REF_NAMES = (
    ["gl(1|1)", "gl(1|2)", "gl(1|3)", "gl(2|2)", "gl(2|3)", "sl(1|2)", "sl(2|2)",
     "psl(2|2)", "hei(0|2)"]
    + [f"{fam}({k})" for fam in ("gl", "sl", "psl") for k in (2, 3, 4)]
)


def _default_refs(bank: ReferenceBank, sdims) -> list:
    """(name, fingerprint) of the default references whose sdim is in sdims:
    a fingerprint carries the sdim, so no other reference can match.  A
    name the field cannot build (psl(k) when sl(k) has no center) is skipped."""
    pairs = []
    for name in _DEFAULT_REF_NAMES:
        try:
            if bank.algebra(name).sdim in sdims:
                pairs.append((name, bank.fingerprint(name)))
        except UsageError:
            continue
    return pairs


def table_shape(family: str, n: int, k: int, p: int) -> Tuple[int, int]:
    """(a, b) of the psl-square (b = n) or psl-shifted (b = n + p k) table."""
    if family == "psl-shifted" and p == 0:
        raise UsageError("psl-shifted requires p > 0")
    b = n if family == "psl-square" else n + p * k
    if not (1 <= n <= TABLE_MAX_N and k >= 1 and b <= TABLE_MAX_B):
        raise UsageError(f"table needs 1 <= n <= {TABLE_MAX_N}, k >= 1 and "
                         f"b <= {TABLE_MAX_B}; got n={n}, k={k}, b={b}")
    return n, b


def cmd_build(args) -> int:
    b = ReferenceBank(args.p, cache_dir=_cache_dir(args)).build(args.key)
    npos = len(b.pos_roots)
    print(f"{args.key} p={args.p}: sdim {_sdim_str(b.sdim)}, {npos} positive roots")
    if args.dump:
        print(serialize_build(b))
    return 0


def _samples(n: int) -> int:
    if n < 0:
        raise UsageError(f"--samples must be >= 0, got {n}")
    return n


def cmd_ds(args) -> int:
    if not (args.x or args.sweep):
        raise UsageError("either --x or --sweep is required")
    samples = _samples(args.samples)
    refs = ReferenceBank(args.p, cache_dir=_cache_dir(args))
    b = None if parse_key(args.key) else refs.build(args.key)
    g = refs.algebra(args.key) if b is None else b.algebra
    if b is None and (args.module or args.sweep):
        raise UsageError(f"{'--module' if args.module else '--sweep'} requires a catalog algebra")
    el = None if args.sweep else g.element(args.x)
    rep = None
    if args.module:
        lam = args.module.split(",")
        if len(lam) != b.n:
            raise UsageError(f"--module needs {b.n} comma-separated highest-weight entries, "
                             f"got {len(lam)}")
        rep = build_irreducible(b, [_parse_weight_entry(b.field, s) for s in lam])
        print(f"module dim {_sdim_str(rep.sdim)}")
    rows = []
    if args.sweep:
        form = symmetrize(b.spec)
        report = defect_report(b, form, seed=args.seed, samples=samples)
        results = report.classes
    else:
        results = [ds_homology(g, el)]
    ref_pairs = _default_refs(refs, {res.sdim_gx for res in results})
    for res in results:
        label = identify(res, ref_pairs)
        rows.append({
            "algebra": args.key, "x": getattr(res.x, "description", None) or args.x,
            "rank_ad": res.rank_ad, "sdim_gx": _sdim_str(res.sdim_gx),
            "label": label,
        })
        if rep is not None:
            mh = module_homology(rep, res.x.element)
            rows[-1]["rank_M"] = mh.rank
            rows[-1]["sdim_Mx"] = _sdim_str(mh.sdim_mx)
    _emit(rows, args.format)
    return 0


def cmd_defect(args) -> int:
    samples = _samples(args.samples)
    b = ReferenceBank(args.p, cache_dir=_cache_dir(args)).build(args.key)
    form = symmetrize(b.spec)
    report = defect_report(b, form, seed=args.seed, samples=samples)
    print(f"{args.key} p={args.p}: g_max {report.g_max}, df {report.df}, "
          f"ndf {report.ndf}  (sweep {report.sweep_size}, seed {report.seed})")
    rows = [{
        "rank_ad": c.rank_ad, "sdim_gx": _sdim_str(c.sdim_gx),
        "representative": c.x.description, "kind": c.x.kind,
        "fingerprint": str(c.fingerprint),
    } for c in report.classes]
    _emit(rows, args.format)
    return 0


def cmd_table(args) -> int:
    FieldSpec(args.p)
    rows = []
    if args.family == "exceptional":
        auditor = Auditor(cache_dir=_cache_dir(args))
        for row in load_expected()["rows"]:
            if row["p"] != args.p or parse_key(row["key"]):
                continue
            oc = auditor.evaluate(row)
            rows.append({"id": row["id"], "algebra": row["key"],
                         "rank_ad": oc.computed_rank,
                         "sdim_gx": _sdim_str(oc.computed_sdim)
                         if oc.computed_sdim else "?",
                         "label": oc.computed_label, "status": oc.status})
    else:
        a, b = table_shape(args.family, args.n, args.k, args.p)
        refs = ReferenceBank(args.p, cache_dir=_cache_dir(args))
        for fam in ("gl", "sl", "psl") if args.family == "psl-square" else ("gl", "psl"):
            for r in chain_table(fam, a, b, args.p, refs):
                r["algebra"] = f"{fam}({a}|{b})"
                r["sdim_gx"] = _sdim_str(r["sdim_gx"])
                rows.append(r)
    _emit(rows, args.format)
    return 0


def cmd_audit(args) -> int:
    data = load_expected()
    rows = data["rows"]
    if not args.all:
        if not args.keys:
            raise UsageError("specify --all or --keys")
        keys = set(args.keys)
        rows = [r for r in rows if r["key"] in keys or r["table"] in keys]
        if not rows:
            raise UsageError(f"--keys matches no row key or table: {' '.join(args.keys)}")
    outcomes, code = run_audit(rows, cache_dir=_cache_dir(args))
    table = []
    for o in outcomes:
        table.append({
            "id": o.row_id, "status": o.status,
            "rank": o.computed_rank,
            "sdim_gx": _sdim_str(o.computed_sdim) if o.computed_sdim else "",
            "label": o.computed_label or "", "detail": o.detail,
        })
    _emit(table, args.format)
    n_match = sum(1 for o in outcomes if o.status == MATCH)
    n_doc = sum(1 for o in outcomes if o.status == DOCUMENTED)
    n_bad = sum(1 for o in outcomes if o.status == DISCREPANCY)
    print(f"# {len(outcomes)} rows: {n_match} match, {n_doc} documented "
          f"discrepancies, {n_bad} unexpected discrepancies")
    return code


def cmd_catalog(args) -> int:
    if args.p is not None:
        FieldSpec(args.p)
    rows = []
    for ent in all_entries():
        if args.p is not None and ent.p != args.p:
            continue
        rows.append({"key": ent.key, "p": ent.p, "n": len(ent.matrix),
                     "sdim": ent.sdim or "?",
                     "source_row": ent.source_row if ent.source_row else "",
                     "modules": ",".join(m["name"] for m in ent.modules)})
    _emit(rows, args.format)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dslie",
        description="exact Cartan-matrix Lie superalgebras and their homology "
                    "with respect to homological odd elements")
    sub = ap.add_subparsers(dest="command", required=True)

    def field(p):
        p.add_argument("-p", dest="p", type=int, required=True,
                       help="field characteristic")

    def fmt(p):
        p.add_argument("--format", choices=["text", "csv", "records"],
                       default="text")

    def cache(p):
        p.add_argument("--cache-dir", default=None,
                       help=f"build cache directory (or ${CACHE_ENV})")

    def sweep(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200,
                       help="random odd samples per sweep")

    b = sub.add_parser("build", help="construct a catalog algebra")
    b.add_argument("key")
    field(b)
    cache(b)
    b.add_argument("--dump", action="store_true", help="print the serialized algebra")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("ds", help="homology of one element or a sweep")
    d.add_argument("key")
    for opt in (field, fmt, cache, sweep):
        opt(d)
    d.add_argument("--x", help="root-vector expression, e.g. x1+x3")
    d.add_argument("--sweep", action="store_true")
    d.add_argument("--module", help="highest weight (comma list) for module ranks")
    d.set_defaults(func=cmd_ds)

    f = sub.add_parser("defect", help="g_max, df and ndf report")
    f.add_argument("key")
    for opt in (field, fmt, cache, sweep):
        opt(f)
    f.set_defaults(func=cmd_defect)

    t = sub.add_parser("table", help="summary tables over a family")
    t.add_argument("family", choices=["psl-square", "psl-shifted", "exceptional"])
    for opt in (field, fmt, cache):
        opt(t)
    t.add_argument("-n", type=int, default=2)
    t.add_argument("-k", type=int, default=1, help="shift multiplier (b = n + p k)")
    t.set_defaults(func=cmd_table)

    a = sub.add_parser("audit", help="recompute and compare the expected tables")
    a.add_argument("--all", action="store_true")
    a.add_argument("--keys", nargs="*", help="restrict to these algebra keys or tables")
    fmt(a)
    cache(a)
    a.set_defaults(func=cmd_audit)

    c = sub.add_parser("catalog", help="list catalog entries")
    c.add_argument("-p", dest="p", type=int, default=None)
    fmt(c)
    c.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, CacheError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DSError, BuildError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
