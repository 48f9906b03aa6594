"""Summary tables over the classical families: chains x_1, x_1+x_3, ... in
gl/sl/psl(a|b) realized on elementary matrices (alternating format)."""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import classical
from .ds import ds_homology, identify
from .superalgebra import Element, Superalgebra

_FAMILY_CACHE: Dict[Tuple[str, int, int, int], Superalgebra] = {}


def family_algebra(family: str, a: int, b: int, p: int) -> Superalgebra:
    key = (family, a, b, p)
    if key not in _FAMILY_CACHE:
        _FAMILY_CACHE[key] = classical.classical(family, a, b, p)
    return _FAMILY_CACHE[key]


def chain_element(g: Superalgebra, k: int) -> Element:
    """x_1 + x_3 + ... with k summands: sums of E_{2i-1,2i}."""
    return g.element(_chain_expr(k))


def _chain_expr(k: int) -> str:
    return "+".join(f"x{2 * i + 1}" for i in range(k))


def chain_reference_names(family: str, a: int, b: int, k: int, p: int) -> List[str]:
    """Plausible reference names for the homology of the k-th chain element."""
    aa, bb = a - k, b - k
    if aa < 0 or bb < 0:
        return []
    names: List[str] = []
    if aa > 0 and bb > 0:
        if aa == bb == 1:
            names += {"gl": ["gl(1|1)"], "sl": ["hei(0|2)"], "psl": []}[family]
        else:
            names.append(f"{family}({aa}|{bb})")
    else:
        nn = max(aa, bb)
        if nn > 1:
            if family == "psl":
                names.append(f"sl({nn})")
                if p and nn % p == 0:
                    names.append(f"psl({nn})")
            else:
                names.append(f"{family}({nn})")
    return names


def chain_table(family: str, a: int, b: int, p: int, refs) -> List[dict]:
    """Rows (k, rank_ad, sdim g_x, label) for the chain elements; refs is the
    references.ReferenceBank the labels are fingerprinted from.  Every
    reference name is one the field builds, so any error surfaces."""
    g = family_algebra(family, a, b, p)
    rows = []
    for k in range(1, min(a, b) + 1):
        el = chain_element(g, k)
        res = ds_homology(g, el)
        label = identify(res, refs.pairs(chain_reference_names(family, a, b, k, p)))
        rows.append({
            "family": family, "a": a, "b": b, "p": p, "k": k,
            "x": _chain_expr(k),
            "rank_ad": res.rank_ad,
            "sdim_gx": res.sdim_gx,
            "label": label,
        })
    return rows
