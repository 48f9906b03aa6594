"""Named algebras at one characteristic: the catalog builds, their g^(1)/c
and the references that DS homologies are identified by fingerprint."""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import classical
from .build import BuildResult
from .catalog import build_catalog_algebra
from .fields import UsageError
from .superalgebra import Fingerprint, Superalgebra, direct_sum
from .tables import family_algebra


class ReferenceBank:
    """The one resolver of names at characteristic p: each catalog build,
    each named algebra (a g^(1)/c included) and each fingerprint is made
    once per bank."""

    def __init__(self, p: int, cache_dir: Optional[str] = None):
        self.p = p
        self.cache_dir = cache_dir
        self._fps: Dict[str, Fingerprint] = {}
        self._algs: Dict[str, Superalgebra] = {}
        self._builds: Dict[str, BuildResult] = {}

    def build(self, key: str) -> BuildResult:
        if key not in self._builds:
            self._builds[key] = build_catalog_algebra(key, self.p, cache_dir=self.cache_dir)
        return self._builds[key]

    def algebra(self, name: str) -> Superalgebra:
        if name not in self._algs:
            self._algs[name] = self._construct(name)
        return self._algs[name]

    def fingerprint(self, name: str) -> Fingerprint:
        if name not in self._fps:
            self._fps[name] = self.algebra(name).fingerprint()
        return self._fps[name]

    def pairs(self, names) -> List[Tuple[str, Fingerprint]]:
        return [(n, self.fingerprint(n)) for n in names]

    def _construct(self, name: str) -> Superalgebra:
        p = self.p
        fam = classical.parse_key(name)
        if fam:
            return family_algebra(*fam, p)
        m = re.fullmatch(r"osp\((\d+)\|(\d+)\)", name)
        if m:
            return classical.osp(int(m.group(1)), int(m.group(2)), p)
        if name == "hei(0|2)":
            return classical.hei_odd(p)
        m = re.fullmatch(r"K\^\{(\d+)\|(\d+)\}", name)
        if m:
            return classical.abelian(int(m.group(1)), int(m.group(2)), p)
        m = re.fullmatch(r"(.+) \(\+\) (.+)", name)
        if m:
            return direct_sum(self.algebra(m.group(1)), self.algebra(m.group(2)))
        m = re.fullmatch(r"(.+)\^\(1\)/c", name)
        if m:
            return self.build(m.group(1)).algebra.first_derived_mod_center()
        raise UsageError(f"unknown reference algebra {name!r}")
