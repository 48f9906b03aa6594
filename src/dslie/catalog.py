"""The shipped catalog of Cartan matrices, keyed by algebra name and p.

The data file stores integer lifts (entries may be marked parametric,
written as "a", "2a", ...), the parity vector, the expected
superdimension, the matrix number in the source catalog, and optional
least-dimension module data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .build import BuildResult, build_g_of_A
from .cartan import CartanSpec
from .fields import UsageError
from .serialize import cache_load, cache_store

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DEGREE_CAP = 40  # the degree cap of every catalog build; part of its cache path


def _parse_entry(e):
    if isinstance(e, int):
        return e
    s = str(e).strip()
    if s.endswith("a"):
        coeff = s[:-1].rstrip("*")
        if coeff in ("", "+"):
            return ("a", 1)
        if coeff == "-":
            return ("a", -1)
        return ("a", int(coeff))
    return int(s)


@dataclass
class CatalogEntry:
    key: str
    p: int
    matrix: List[List]
    parities: List[int]
    sdim: Optional[str]
    source_row: Optional[int]
    notes: str
    modules: List[dict]
    numbering: str = ""

    def spec(self) -> CartanSpec:
        entries = [[_parse_entry(e) for e in row] for row in self.matrix]
        return CartanSpec(key=self.key, p=self.p, entries=entries,
                          parities=list(self.parities), expected_sdim=self.sdim,
                          source_row=self.source_row, notes=self.notes)


class CatalogError(UsageError):
    """No catalog entry for the key at this characteristic."""


_CATALOG: Optional[Dict[Tuple[str, int], CatalogEntry]] = None


def _load() -> Dict[Tuple[str, int], CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        with open(os.path.join(_DATA_DIR, "catalog.json")) as fh:
            raw = json.load(fh)
        _CATALOG = {}
        for item in raw["entries"]:
            ent = CatalogEntry(
                key=item["key"], p=item["p"], matrix=item["matrix"],
                parities=[int(c) for c in item["parities"]],
                sdim=item.get("sdim"), source_row=item.get("source_row"),
                notes=item.get("notes", ""), modules=item.get("modules", []),
                numbering=item.get("numbering", ""))
            _CATALOG[(ent.key, ent.p)] = ent
    return _CATALOG


def keys_for_p(p: int) -> List[str]:
    return sorted(k for k, pp in _load() if pp == p)


def all_entries() -> List[CatalogEntry]:
    return [v for _, v in sorted(_load().items())]


def catalog_get(key: str, p: int) -> CatalogEntry:
    cat = _load()
    ent = cat.get((key, p))
    if ent is None:
        avail = keys_for_p(p)
        raise CatalogError(
            f"no catalog entry {key!r} for p={p}; available for p={p}: {avail}")
    return ent


def build_catalog_algebra(key: str, p: int, cache_dir: Optional[str] = None) -> BuildResult:
    ent = catalog_get(key, p)
    spec = ent.spec()
    cached = cache_load(cache_dir, spec, DEGREE_CAP)
    if cached is not None:
        return cached
    b = build_g_of_A(spec, degree_cap=DEGREE_CAP)
    cache_store(cache_dir, spec, DEGREE_CAP, b)
    return b
