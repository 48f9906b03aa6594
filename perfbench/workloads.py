"""The benchmark's workloads: a fixed pool of ops each, per-process setup,
one op, and the check of each op against data the repository ships.

Every workload exposes ``pool`` (a list of op descriptors), ``setup()``,
``run(op, op_seed)`` (the timed call into the library) and
``check(op, op_seed, result)`` returning ``(ok, digest_line)``.  Nothing
here compares an op with the engine's own earlier output: rows are checked
against the printed (or frozen) values in ``expected_tables.json``, builds
against ``catalog.json``, defect reports against the values the test
suite states plus the forced identities.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Tuple

# the library is called through its module attributes, so the tracer's
# wrappers see the benchmark's own calls too
from dslie import build, cartan, catalog, ds, modules, serialize
from dslie.audit import Auditor, _parse_weight_entry, load_expected

CLASSICAL_KEY = re.compile(r"(gl|sl|psl)\((\d+)\|(\d+)\)")
DEGREE_CAP = 40

# Rows of the exceptional tables left out of the ds-exceptional pool, with
# the reason.  Op costs are single-process seconds on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4); "setup" is the extra per-process setup the row
# would add.
EXCEPTIONAL_OUT: Dict[str, str] = {
    "e81/x1": "op 9.3 s; reference e(7,1)^(1)/c adds 4.2 s setup",
    "e81/x1+x5": "op 1.5 s", "e81/x1+x5+x7": "op 1.3 s", "e81/v": "op 1.3 s",
    "e88/x1": "op 8.3 s; reference e(7,7)^(1)/c adds 3.8 s setup",
    "e88/x1+x3": "op 1.5 s",
    "e71/x1": "op 1.6 s", "e71/x1+x3": "op 1.6 s", "e71/x1+x3+x7": "op 1.1 s",
    "e76/x2": "op 1.7 s", "e77/x1": "op 1.6 s",
    "e71s/x1": "subquotient of e(7,1) adds 2.7 s setup; op 1.3 s",
    "e71s/x1+x3": "subquotient of e(7,1) adds 2.7 s setup; op 1.1 s",
    "e71s/x1+x3+x7": "subquotient of e(7,1) adds 2.7 s setup; op 1.2 s",
    "e76s/x2": "subquotient of e(7,6) adds 2.7 s setup; op 1.2 s",
    "e76s/x2+x4": "subquotient of e(7,6) adds 2.7 s setup; op 0.55 s",
    "e76s/z": "subquotient of e(7,6) adds 2.7 s setup",
    "e77s/x1": "subquotient of e(7,7) adds 2.6 s setup; op 1.1 s",
    "e77s/x1+x3": "subquotient of e(7,7) adds 2.6 s setup; op 0.54 s",
    "e77s/z": "subquotient of e(7,7) adds 2.6 s setup",
    "e77s/v": "subquotient of e(7,7) adds 2.6 s setup",
    "e61/x1": "op 1.2 s; reference psl(5|1) adds 1.1 s setup",
    "e66/x1": "op 1.1 s; reference psl(3|3) adds 0.9 s setup",
    "g46/x3": "op 3.0 s; reference psl(6) adds 2.5 s setup",
    "g83/x2": "op 2.1 s; reference g(3,3)^(1)/c adds 1.3 s setup",
    "g86/x2": "op 2.6 s; reference e(6)^(1)/c adds 1.0 s setup",
    "g66/x1": "op 1.2 s",
    "bgl4/x1": "op 0.85 s", "bgl4/x3": "op 0.9 s", "bgl4/x4": "op 0.85 s",
    "bgl4/x14": "op 0.95 s",
}

# Square and shifted rows left out of the classical-tables pool: every row
# whose op costs more than 0.25 s (measured op seconds, same machine as
# above), except the square-3 k=1 rows over QQ (0.7-1.4 s each; gl(3|3)
# stays, see below).  The biggest left out also need seconds of setup: the
# square-4 k=1 rows over QQ need the reference fingerprints of
# gl/sl/psl(3|3) over QQ (42-53 s each); shifted rows on gl/psl(3|12) at
# p=3 and gl/psl(4|10) at p=2 need 2-14 s each.
CLASSICAL_OUT = {
    "sh/p2/gl2-6/k1": 1.5, "sh/p2/gl2-8/k1": 0.9, "sh/p2/gl2-8/k2": 3.2,
    "sh/p2/gl3-5/k1": 1.1, "sh/p2/gl3-7/k1": 1.1, "sh/p2/gl3-7/k2": 1.3,
    "sh/p2/gl3-9/k1": 3.7, "sh/p2/gl3-9/k2": 1.2, "sh/p2/gl3-9/k3": 3.5,
    "sh/p2/gl4-10/k1": 7.3, "sh/p2/gl4-10/k2": 2.8, "sh/p2/gl4-10/k3": 1.0,
    "sh/p2/gl4-10/k4": 4.2, "sh/p2/gl4-6/k1": 1.0, "sh/p2/gl4-6/k2": 1.1,
    "sh/p2/gl4-8/k1": 3.6, "sh/p2/gl4-8/k2": 1.0, "sh/p2/gl4-8/k3": 1.3,
    "sh/p2/psl2-6/k1": 1.2, "sh/p2/psl2-8/k1": 0.8, "sh/p2/psl2-8/k2": 3.6,
    "sh/p2/psl3-5/k1": 1.0, "sh/p2/psl3-7/k1": 0.9, "sh/p2/psl3-7/k2": 1.3,
    "sh/p2/psl3-9/k1": 3.5, "sh/p2/psl3-9/k2": 1.0, "sh/p2/psl3-9/k3": 3.4,
    "sh/p2/psl4-10/k1": 8.9, "sh/p2/psl4-10/k2": 3.1, "sh/p2/psl4-10/k3": 1.0,
    "sh/p2/psl4-10/k4": 3.0, "sh/p2/psl4-6/k1": 1.0, "sh/p2/psl4-6/k2": 1.1,
    "sh/p2/psl4-8/k1": 2.0, "sh/p2/psl4-8/k2": 0.6, "sh/p2/psl4-8/k3": 1.0,
    "sh/p3/gl2-11/k1": 5.7, "sh/p3/gl2-11/k2": 2.2, "sh/p3/gl2-8/k1": 1.2,
    "sh/p3/gl2-8/k2": 3.2, "sh/p3/gl3-12/k1": 15.3, "sh/p3/gl3-12/k2": 5.7,
    "sh/p3/gl3-12/k3": 2.2, "sh/p3/gl3-6/k1": 0.6, "sh/p3/gl3-6/k2": 0.3,
    "sh/p3/gl3-9/k1": 3.6, "sh/p3/gl3-9/k2": 1.5, "sh/p3/gl3-9/k3": 3.9,
    "sh/p3/gl4-10/k1": 9.7, "sh/p3/gl4-10/k2": 3.7, "sh/p3/gl4-10/k3": 1.5,
    "sh/p3/gl4-10/k4": 3.6, "sh/p3/gl4-7/k1": 2.5, "sh/p3/gl4-7/k2": 0.8,
    "sh/p3/gl4-7/k3": 0.3, "sh/p3/psl2-11/k1": 4.7, "sh/p3/psl2-11/k2": 1.9,
    "sh/p3/psl2-8/k1": 1.1, "sh/p3/psl2-8/k2": 2.8, "sh/p3/psl3-12/k1": 13.2,
    "sh/p3/psl3-12/k2": 4.9, "sh/p3/psl3-12/k3": 2.0, "sh/p3/psl3-6/k1": 3.3,
    "sh/p3/psl3-9/k1": 3.2, "sh/p3/psl3-9/k2": 1.1, "sh/p3/psl3-9/k3": 3.2,
    "sh/p3/psl4-10/k1": 9.6, "sh/p3/psl4-10/k2": 3.8, "sh/p3/psl4-10/k3": 1.5,
    "sh/p3/psl4-10/k4": 2.9, "sh/p3/psl4-7/k1": 2.4, "sh/p3/psl4-7/k2": 3.4,
    "sh/p5/gl1-11/k1": 4.3, "sh/p5/gl1-6/k1": 0.6, "sh/p5/gl2-12/k1": 9.3,
    "sh/p5/gl2-12/k2": 4.2, "sh/p5/gl2-7/k1": 0.5, "sh/p5/gl2-7/k2": 0.5,
    "sh/p5/gl3-8/k1": 2.3, "sh/p5/gl3-8/k2": 0.7, "sh/p5/gl3-8/k3": 0.7,
    "sh/p5/gl4-9/k1": 6.4, "sh/p5/gl4-9/k2": 1.9, "sh/p5/gl4-9/k3": 0.7,
    "sh/p5/gl4-9/k4": 0.8, "sh/p5/psl1-11/k1": 3.4, "sh/p5/psl1-6/k1": 0.5,
    "sh/p5/psl2-12/k1": 9.4, "sh/p5/psl2-12/k2": 3.5, "sh/p5/psl2-7/k1": 5.9,
    "sh/p5/psl2-7/k2": 0.6, "sh/p5/psl3-8/k1": 2.0, "sh/p5/psl3-8/k2": 4.7,
    "sh/p5/psl3-8/k3": 0.5, "sh/p5/psl4-9/k1": 5.8, "sh/p5/psl4-9/k2": 2.3,
    "sh/p5/psl4-9/k3": 4.8, "sh/p5/psl4-9/k4": 0.4, "sq4/gl/p0/k1": '90-122',
    "sq4/gl/p0/k2": 1.4, "sq4/gl/p2/k1": 1.3, "sq4/gl/p3/k1": 1.0, "sq4/gl/p5/k1": 1.0,
    "sq4/psl/p0/k1": '90-122', "sq4/psl/p0/k2": 0.6, "sq4/psl/p2/k1": 0.9,
    "sq4/psl/p3/k1": 0.9, "sq4/psl/p5/k1": 0.8, "sq4/sl/p0/k1": '90-122',
    "sq4/sl/p0/k2": 1.2, "sq4/sl/p2/k1": 1.3, "sq4/sl/p3/k1": 0.9, "sq4/sl/p5/k1": 0.9,
}

# Families whose per-process setup (family algebra plus the references its
# pool rows name) costs more than 0.25 s are left out too, so the three
# setups behind setup_s stay short; gl(3|3) over QQ stays for the generic
# Fraction backend (its k=1 row is the 1.4 s op of the pool).
CLASSICAL_FAMILIES_OUT = {
    ("psl(4|8)", 2): 2.6, ("psl(4|4)", 0): 2.2, ("psl(4|7)", 3): 1.3,
    ("sl(3|3)", 0): 1.2, ("psl(3|3)", 0): 1.2, ("sl(4|4)", 0): 1.1,
    ("gl(2|6)", 2): 1.0, ("psl(3|7)", 2): 1.0, ("psl(4|6)", 2): 0.9,
    ("psl(3|6)", 3): 0.5, ("psl(2|5)", 3): 0.4, ("psl(4|4)", 2): 0.4,
    ("psl(2|6)", 2): 0.35, ("gl(2|5)", 3): 0.3, ("psl(4|4)", 5): 0.3,
    ("psl(4|4)", 3): 0.3, ("psl(3|5)", 2): 0.3,
}

DEFECT_POOL: List[Tuple[str, int]] = [
    ("bgl(3;alpha)", 2), ("bgl(4;alpha)", 2),
    ("osp(4|2;a)", 5), ("osp(4|2;a)", 7), ("osp(4|2;a)", 11),
    ("ag(2)", 5), ("ag(2)", 7), ("ag(2)", 11),
    ("ab(3)", 5), ("ab(3)", 7), ("ab(3)", 11),
    ("brj(2;3)", 3), ("brj(2;5)", 5),
    ("g(1,6)", 3), ("g(2,3)", 3), ("g(3,3)", 3),
]
DEFECT_SAMPLES = 20
# (g_max, df, ndf) and adjoint ranks stated by the test suite
DEFECT_STATED = {
    ("brj(2;5)", 5): {"g_max": 1, "df": 1, "ndf": 1},
    ("bgl(4;alpha)", 2): {"g_max": 2, "ndf": 3, "ranks": [10, 14, 16]},
}


def _sdim_pair(s: str) -> Tuple[int, int]:
    ev, od = s.split("|")
    return int(ev), int(od)


def reset_library_caches():
    """Drop the library's process-wide caches so a repeated setup redoes
    its work (family algebras and the parsed catalog)."""
    import dslie.catalog
    import dslie.tables
    dslie.tables._FAMILY_CACHE.clear()
    dslie.catalog._CATALOG = None


# ---------------------------------------------------------------------------
# table rows (ds-exceptional, classical-tables)
# ---------------------------------------------------------------------------


class RowWorkload:
    """Each op recomputes one row of the expected tables: the element, its
    homology with the library's own checks, the identification against the
    row's reference, and the module rank when the row has one."""

    def __init__(self, rows: List[dict]):
        self.pool = rows
        self.auditor: Optional[Auditor] = None

    def setup(self):
        aud = Auditor(cache_dir=None)
        for row in self.pool:
            aud.algebra_of(row)
            if not ({"chain", "chain_mixed", "expr", "roots"} & set(row["x"])):
                aud.candidate_pool(row["key"], row["p"], row.get("algebra", "g"))
            for name in self._labels(row):
                aud.refs(row["p"]).fingerprint(name)
            if row.get("rank_M") is not None:
                aud.module(row["key"], row["p"], row.get("module", "M"))
        self.auditor = aud

    @staticmethod
    def _labels(row) -> List[str]:
        names = [row.get("label"), row.get("computed", {}).get("label")]
        return sorted({n for n in names if n and n != "0" and not n.startswith("K^")
                       and ";" not in n})

    def run(self, row, op_seed):
        aud = self.auditor
        g = aud.algebra_of(row)
        el, _desc = aud.resolve_x(row)
        res = ds.ds_homology(g, el)
        bank = aud.refs(row["p"])
        labels = {}
        for which, name in (("printed", row.get("label")),
                            ("frozen", row.get("computed", {}).get("label"))):
            if name is None:
                continue
            refs = [(name, bank.fingerprint(name))] if name in self._labels(row) else []
            lab = ds.identify(res, refs)
            labels[which] = "0" if lab == "K^{0|0}" else lab
        rank_m = None
        if row.get("rank_M") is not None:
            rep = aud.module(row["key"], row["p"], row.get("module", "M"))
            mel = aud.build(row["key"], row["p"]).x_element(row["x"]["expr"]) \
                if "expr" in row["x"] else el
            rank_m = modules.module_homology(rep, mel).rank
        return {"g_sdim": g.sdim, "odd_x": g.parity_of(el) == 1, "rank": res.rank_ad,
                "sdim": list(res.sdim_gx), "labels": labels, "rank_M": rank_m}

    def check(self, row, op_seed, out) -> Tuple[bool, str]:
        ok = True
        (ge, go), (he, ho) = out["g_sdim"], out["sdim"]
        if he + ho != ge + go - 2 * out["rank"]:
            ok = False
        if out["odd_x"] and he - ho != ge - go:
            ok = False
        frozen = row.get("computed", {})
        computed = {"rank": out["rank"], "sdim_gx": out["sdim"],
                    "label": out["labels"].get("frozen"), "rank_M": out["rank_M"]}
        for k, want in frozen.items():
            if computed[k] != want:
                ok = False  # frozen values never drift, whitelisted or not
        printed = {"rank": out["rank"], "sdim_gx": out["sdim"],
                   "label": out["labels"].get("printed"), "rank_M": out["rank_M"]}
        mism = [k for k in printed if row.get(k) is not None and printed[k] != row[k]]
        # a row keeps its audit status: whitelisted rows disagree with their
        # printed values, every other row agrees with all of them
        if bool(mism) != bool(row.get("whitelist")):
            ok = False
        line = (f"{row['id']}|{out['rank']}|{he}|{ho}|"
                f"{out['labels'].get('frozen', out['labels'].get('printed'))}|{out['rank_M']}")
        return ok, line


def exceptional_rows() -> List[dict]:
    rows = [r for r in load_expected()["rows"] if not CLASSICAL_KEY.fullmatch(r["key"])]
    return [r for r in rows if r["id"] not in EXCEPTIONAL_OUT]


def classical_rows() -> List[dict]:
    rows = [r for r in load_expected()["rows"]
            if CLASSICAL_KEY.fullmatch(r["key"]) and r["table"] != "adhom"]
    return [r for r in rows if r["id"] not in CLASSICAL_OUT
            and (r["key"], r["p"]) not in CLASSICAL_FAMILIES_OUT]


# ---------------------------------------------------------------------------
# defect sweep
# ---------------------------------------------------------------------------


class DefectWorkload:
    """Each op symmetrizes the Cartan matrix and runs one seeded defect
    report (candidate sweep, adjoint ranks, homology classes)."""

    def __init__(self):
        self.pool = list(DEFECT_POOL)
        self.builds = {}

    def setup(self):
        self.builds = {k: catalog.build_catalog_algebra(*k) for k in self.pool}

    def run(self, op, op_seed):
        b = self.builds[op]
        form = cartan.symmetrize(b.spec)
        return ds.defect_report(b, form, seed=op_seed, samples=DEFECT_SAMPLES)

    def check(self, op, op_seed, rep) -> Tuple[bool, str]:
        g = self.builds[op].algebra
        ge, go = g.sdim
        ok = ds.rank_equivalence_check(rep.classes)["ok"] and rep.ndf == len(rep.classes) > 0
        for c in rep.classes:
            he, ho = c.sdim_gx
            ok = ok and he + ho == ge + go - 2 * c.rank_ad and he - ho == ge - go
        stated = DEFECT_STATED.get(op, {})
        got = {"g_max": rep.g_max, "df": rep.df, "ndf": rep.ndf,
               "ranks": sorted(c.rank_ad for c in rep.classes)}
        ok = ok and all(got[k] == v for k, v in stated.items())
        line = (f"{op[0]}@{op[1]}|{op_seed}|{rep.g_max}|{rep.df}|{rep.ndf}|"
                f"{got['ranks']}|{rep.sweep_size}")
        return ok, line


# ---------------------------------------------------------------------------
# catalog builds
# ---------------------------------------------------------------------------


class BuildWorkload:
    """Each op builds one catalog entry cold, stores it in the run's cache
    directory and loads it back; entries with module data also build their
    irreducible modules and run one module homology."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.pool = []
        self.module_x = {}

    def setup(self):
        self.pool = [(e.key, e.p) for e in catalog.all_entries()]
        self.entries = {(e.key, e.p): e for e in catalog.all_entries()}
        self.specs = {k: e.spec() for k, e in self.entries.items()}
        # one module-homology probe per entry with modules: the first row of
        # the tables whose module rank is trustworthy (printed and not
        # whitelisted, or frozen)
        aud = Auditor(cache_dir=None)
        for row in load_expected()["rows"]:
            k = (row["key"], row["p"])
            if row.get("rank_M") is None or k in self.module_x:
                continue
            want = row.get("computed", {}).get("rank_M")
            if want is None and not row.get("whitelist"):
                want = row["rank_M"]
            if want is None:
                continue
            if "expr" in row["x"]:
                x = aud.build(*k).x_element(row["x"]["expr"])
            else:
                x, _ = aud.resolve_x(row)
            self.module_x[k] = (row.get("module", "M"), x, want)

    def run(self, op, op_seed):
        spec = self.specs[op]
        b = build.build_g_of_A(spec, degree_cap=DEGREE_CAP)
        path = serialize.cache_store(self.cache_dir, spec, DEGREE_CAP, b)
        loaded = serialize.cache_load(self.cache_dir, spec, DEGREE_CAP)
        mods = {}
        for m in self.entries[op].modules:
            lam = [_parse_weight_entry(b.field, s) for s in m["weight"]]
            mods[m["name"]] = modules.build_irreducible(b, lam, hw_parity=m.get("hw_parity", 0),
                                                name=m["name"])
        rank_m = None
        if op in self.module_x:
            name, x, _want = self.module_x[op]
            rank_m = modules.module_homology(mods[name], x).rank
        return {"build": b, "path": path, "loaded": loaded, "modules": mods, "rank_M": rank_m}

    def check(self, op, op_seed, out) -> Tuple[bool, str]:
        ent = self.entries[op]
        want, _sub = build.parse_sdim(ent.sdim)
        b = out["build"]
        ok = b.sdim == want and out["loaded"].sdim == want
        with open(out["path"], "rb") as fh:
            stored = fh.read()
        ok = ok and serialize.serialize_build(out["loaded"]).encode() == stored
        msd = []
        for m in ent.modules:
            got = out["modules"][m["name"]].sdim
            msd.append(f"{m['name']}={got[0]}|{got[1]}")
            ok = ok and (not m.get("sdim") or got == _sdim_pair(m["sdim"]))
        if op in self.module_x:
            ok = ok and out["rank_M"] == self.module_x[op][2]
        digest = hashlib.sha256(stored).hexdigest()[:16]
        line = f"{op[0]}@{op[1]}|{want[0]}|{want[1]}|{digest}|{','.join(msd)}|{out['rank_M']}"
        return ok, line


# ---------------------------------------------------------------------------


def make_workload(name: str, cache_dir: str):
    if name == "ds-exceptional":
        return RowWorkload(exceptional_rows())
    if name == "classical-tables":
        return RowWorkload(classical_rows())
    if name == "defect-sweep":
        return DefectWorkload()
    if name == "build-catalog":
        return BuildWorkload(cache_dir)
    raise ValueError(f"unknown workload {name!r}")
