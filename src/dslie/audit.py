"""Regression audit of the bundled expected-value tables against recomputation.

Every table row of the reference dataset is recomputed from scratch:
the algebra is rebuilt, the element is resolved (an expression or chain
read by Superalgebra.element, or a class representative), the adjoint
rank / homology superdimension / identification label (and module rank,
when the row carries one) are recomputed and compared.  Rows whose
printed values are provably inconsistent with the forced identity
dim g_x = dim g - 2 rank ad_x are whitelisted in the dataset with
commentary; any other disagreement, and any computation that fails, is
an audit failure (exit code 3).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import classical
from .build import BuildResult
from .catalog import _parse_entry, catalog_get
from .ds import (DSResult, adjoint_rank, ds_homology, identify, is_homological,
                 single_root_candidates)
from .fields import UsageError
from .modules import ModuleRep, build_irreducible, module_homology
from .references import ReferenceBank
from .serialize import CacheError
from .superalgebra import Element, Fingerprint, Superalgebra, el_sum
from .tables import chain_element

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

MATCH = "matches-reference"
DOCUMENTED = "discrepancy-documented"
DISCREPANCY = "discrepancy"


@dataclass
class AuditOutcome:
    row: dict
    computed_rank: Optional[int] = None
    computed_sdim: Optional[Tuple[int, int]] = None
    computed_label: Optional[str] = None
    computed_rank_m: Optional[int] = None
    status: str = MATCH
    detail: str = ""

    @property
    def row_id(self) -> str:
        return self.row.get("id", "?")


def load_expected() -> dict:
    with open(os.path.join(_DATA_DIR, "expected_tables.json")) as fh:
        return json.load(fh)


class Auditor:
    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self._refs: Dict[int, ReferenceBank] = {}
        self._modules: Dict[Tuple[str, int, str], ModuleRep] = {}
        self._tags: Dict[str, Tuple[str, Fingerprint]] = {}
        self._pool: Dict[Tuple[str, int, str], List[Element]] = {}
        self._results: Dict[Tuple[str, int, str, str], DSResult] = {}

    # -- construction: one ReferenceBank per characteristic ---------------------

    def refs(self, p: int) -> ReferenceBank:
        if p not in self._refs:
            self._refs[p] = ReferenceBank(p, cache_dir=self.cache_dir)
        return self._refs[p]

    def build(self, key: str, p: int) -> BuildResult:
        return self.refs(p).build(key)

    def subquotient(self, key: str, p: int) -> Superalgebra:
        return self.refs(p).algebra(f"{key}^(1)/c")

    def module(self, key: str, p: int, name: str) -> ModuleRep:
        k = (key, p, name)
        if k not in self._modules:
            ent = catalog_get(key, p)
            mod = next(m for m in ent.modules if m["name"] == name)
            b = self.build(key, p)
            fld = b.field
            lam = [_parse_weight_entry(fld, s) for s in mod["weight"]]
            rep = build_irreducible(b, lam, hw_parity=mod.get("hw_parity", 0), name=name)
            want = mod.get("sdim")
            if want:
                ev, od = want.split("|")
                if rep.sdim != (int(ev), int(od)):
                    raise RuntimeError(
                        f"module {name} of {key}: built sdim {rep.sdim}, expected {want}")
            self._modules[k] = rep
        return self._modules[k]

    # -- element resolution ----------------------------------------------------

    def algebra_of(self, row: dict) -> Superalgebra:
        if classical.parse_key(row["key"]):
            return self.refs(row["p"]).algebra(row["key"])
        if row.get("algebra") == "sub":
            return self.subquotient(row["key"], row["p"])
        return self.build(row["key"], row["p"]).algebra

    def resolve_x(self, row: dict) -> Tuple[Element, str]:
        g = self.algebra_of(row)
        x = row["x"]
        if "chain" in x:
            k = x["chain"]
            return chain_element(g, k), f"chain{k}"
        if "chain_mixed" in x:
            return (g.element("+".join(f"x{i}" for i in x["chain_mixed"])),
                    "chain_mixed" + "-".join(map(str, x["chain_mixed"])))
        if "expr" in x:
            return g.element(x["expr"]), x["expr"]
        # class mode: find a candidate with the true rank (or homology dim);
        # frozen recomputed values take precedence for resolution since the
        # printed ones may be the documented-inconsistent part
        frozen = row.get("computed", {})
        pool = self.candidate_pool(row["key"], row["p"], row.get("algebra", "g"))
        want_rank = x.get("class_rank")
        if "class_rank" in x and "rank" in frozen:
            want_rank = frozen["rank"]
        want_sdim = tuple(x["class_sdim"]) if "class_sdim" in x else None
        for el in pool:
            r = adjoint_rank(g, el)
            if want_rank is not None and r != want_rank:
                continue
            if want_sdim is not None and g.dim - 2 * r != sum(want_sdim):
                continue
            return el, f"class(rank={r})"
        raise RuntimeError(f"{row.get('id')}: no candidate matches {x}")

    def candidate_pool(self, key: str, p: int, which: str) -> List[Element]:
        """The homological single roots of the build, then the homological
        sums of two of them, then of three; for "sub", those that lie in
        g^(1)/c and are homological there.

        A triple's sum x = a + b + c of odd root vectors with zero squares
        has the square (s(x) at p = 2, [x, x]/2 otherwise) [a, b] + [a, c]
        + [b, c], and [a, b], the square of a + b, lies in the root space
        of w_a + w_b.  When the roots are distinct, so are the three pair
        weights, and the square is 0 only if every pair's is: a triple with
        a failed pair is then skipped without is_homological."""
        k = (key, p, which)
        if k in self._pool:
            return self._pool[k]
        b = self.build(key, p)
        f = b.field
        singles = single_root_candidates(b)
        g = b.algebra
        roots = [h.constituents[0] for h in singles]
        pool: List[Element] = [h.element for h in singles]
        failed = set()
        for pair in itertools.combinations(range(len(singles)), 2):
            el = el_sum(f, [(f.one, singles[s].element) for s in pair])
            if is_homological(g, el) == "odd":
                pool.append(el)
            else:
                failed.add(pair)
        for trio in itertools.combinations(range(len(singles)), 3):
            if (len({roots[s] for s in trio}) == 3
                    and not failed.isdisjoint(itertools.combinations(trio, 2))):
                continue
            el = el_sum(f, [(f.one, singles[s].element) for s in trio])
            if is_homological(g, el) == "odd":
                pool.append(el)
        if which == "sub":
            h = self.subquotient(key, p)
            index = {lab: i for i, lab in enumerate(h.labels)}
            mapped = [{index[g.labels[i]]: f.one for i in sorted(el)} for el in pool
                      if all(g.labels[i] in index for i in el)]
            pool = [el for el in mapped if el and is_homological(h, el) == "odd"]
        self._pool[k] = pool
        return pool

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, row: dict) -> AuditOutcome:
        """The row's outcome.  A computation failure is a discrepancy even on
        a whitelisted row: the whitelist excuses printed values, never a
        value that was not computed.  A cache that cannot be written is no
        row's outcome: it is raised."""
        try:
            return self._evaluate(row)
        except CacheError:
            raise
        except Exception as exc:  # reported as the row's outcome, not raised
            return AuditOutcome(row=row, status=DISCREPANCY,
                                detail=f"computation failed: {exc}")

    def _evaluate(self, row: dict) -> AuditOutcome:
        out = AuditOutcome(row=row)
        g = self.algebra_of(row)
        try:
            el, desc = self.resolve_x(row)
        except UsageError as exc:
            out.status = DOCUMENTED if row.get("whitelist") else DISCREPANCY
            out.detail = f"element resolution failed: {exc}"
            return out
        rkey = (row["key"], row["p"], row.get("algebra", "g"), desc)
        if rkey in self._results:
            res = self._results[rkey]
        else:
            res = ds_homology(g, el)
            self._results[rkey] = res
        out.computed_rank = res.rank_ad
        out.computed_sdim = res.sdim_gx

        # identification
        p = row["p"]
        expect_label = row.get("label")
        label, missing = self._label(res, p, expect_label)
        if missing is not None:
            out.detail += f"[reference {expect_label} unavailable: {missing}]"
        out.computed_label = label

        mism = []
        hard = []
        if row.get("rank") is not None and res.rank_ad != row["rank"]:
            mism.append(f"rank {res.rank_ad} != printed {row['rank']}")
        if row.get("sdim_gx") is not None and list(res.sdim_gx) != list(row["sdim_gx"]):
            mism.append(f"sdim {res.sdim_gx} != printed {tuple(row['sdim_gx'])}")
        if expect_label is not None and label != expect_label:
            mism.append(f"label {label!r} != printed {expect_label!r}")
        if row.get("tag"):
            tag = row["tag"]
            if tag in self._tags:
                other_id, fp = self._tags[tag]
                if fp != res.fingerprint:
                    hard.append(f"consistency tag {tag} differs from {other_id}")
            else:
                self._tags[tag] = (row.get("id", "?"), res.fingerprint)
        if row.get("rank_M") is not None:
            rep = self.module(row["key"], p, row.get("module", "M"))
            mel = self.build(row["key"], p).x_element(row["x"]["expr"]) \
                if "expr" in row["x"] else el
            mh = module_homology(rep, mel)
            out.computed_rank_m = mh.rank
            if mh.rank != row["rank_M"]:
                mism.append(f"rank_M {mh.rank} != printed {row['rank_M']}")
        # frozen recomputed values: disagreement here is an engine regression,
        # never excused by the whitelist
        frozen = row.get("computed", {})
        if "rank" in frozen and res.rank_ad != frozen["rank"]:
            hard.append(f"rank {res.rank_ad} != frozen {frozen['rank']}")
        if "sdim_gx" in frozen and list(res.sdim_gx) != list(frozen["sdim_gx"]):
            hard.append(f"sdim {res.sdim_gx} != frozen {frozen['sdim_gx']}")
        if "label" in frozen:
            flabel, _missing = self._label(res, p, frozen["label"])
            if flabel != frozen["label"]:
                hard.append(f"label {flabel!r} != frozen {frozen['label']!r}")
            out.computed_label = flabel
        if "rank_M" in frozen and out.computed_rank_m != frozen["rank_M"]:
            hard.append(f"rank_M {out.computed_rank_m} != frozen {frozen['rank_M']}")
        if hard:
            out.status = DISCREPANCY
            out.detail = "; ".join(hard + mism)
        elif mism:
            out.status = DOCUMENTED if row.get("whitelist") else DISCREPANCY
            out.detail = "; ".join(mism)
        return out

    def _label(self, res: DSResult, p: int,
               name: Optional[str]) -> Tuple[str, Optional[UsageError]]:
        """The homology's label against the one reference name ("0" for the
        zero algebra), and why the name could not be built (None if it
        could).  No name, or "0", is no reference."""
        pairs, missing = [], None
        if name and name != "0":
            try:
                pairs = self.refs(p).pairs([name])
            except UsageError as exc:
                missing = exc
        label = identify(res, pairs)
        return ("0" if label == "K^{0|0}" else label), missing


def run_audit(rows: List[dict],
              cache_dir: Optional[str] = None) -> Tuple[List[AuditOutcome], int]:
    auditor = Auditor(cache_dir=cache_dir)
    outcomes = [auditor.evaluate(row) for row in rows]
    return outcomes, 3 if any(o.status == DISCREPANCY for o in outcomes) else 0


def _parse_weight_entry(fld, s):
    """A highest-weight entry: an integer or a linear expression in the
    transcendental a ("a", "a+1", "2a-1")."""
    terms = [t for t in str(s).replace(" ", "").replace("-", "+-").split("+") if t]
    try:
        if not terms:
            raise ValueError
        total = fld.zero
        for e in map(_parse_entry, terms):
            if isinstance(e, tuple) and not fld.spec.parametric:
                raise ValueError
            total = fld.add(total, fld.param(e[1]) if isinstance(e, tuple) else fld.from_int(e))
    except ValueError:
        raise UsageError(f"bad highest-weight entry {s!r}: use an integer or k*a+m") from None
    return total
