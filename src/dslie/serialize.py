"""Byte-stable serialization of built algebras and the on-disk build cache.

Everything is canonical JSON (sorted keys, fixed separators), so repeated
runs produce identical bytes; the cache is keyed by a content digest of
the Cartan data, the degree cap and the file format.  A cache entry that
cannot be read or decoded, that names a basis index outside [0, dim), or
whose algebra disagrees with the spec's expected sdim, is treated as a
miss.  A cache directory that cannot be created or written, or an entry
that cannot be written, is a CacheError that names the path; it is not a
UsageError, so no caller takes it for a bad name, and the CLI reports it
as a usage error.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Optional

from .build import BuildResult, _Node, parse_sdim
from .cartan import CartanSpec
from .fields import Field, RatFunc, field_for
from .superalgebra import Superalgebra

CACHE_FORMAT = 1  # bump when the stored layout or the builder's output changes


class CacheError(Exception):
    """A cache directory or entry that cannot be created or written."""


def scalar_to_obj(fld: Field, x):
    if fld.spec.parametric:
        if fld.p:
            return [list(x.num), list(x.den)]
        return [[str(c) for c in x.num], [str(c) for c in x.den]]
    if fld.p:
        return int(x)
    return str(x)


def scalar_from_obj(fld: Field, o):
    if fld.spec.parametric:
        if fld.p:
            return RatFunc(tuple(int(c) for c in o[0]), tuple(int(c) for c in o[1]))
        return RatFunc(tuple(Fraction(c) for c in o[0]), tuple(Fraction(c) for c in o[1]))
    if fld.p:
        return int(o)
    return Fraction(o)


def element_to_obj(fld: Field, el: dict) -> dict:
    return {str(k): scalar_to_obj(fld, v) for k, v in sorted(el.items())}


def element_from_obj(fld: Field, o: dict) -> dict:
    return {int(k): scalar_from_obj(fld, v) for k, v in o.items()}


def _check_indices(o: dict) -> None:
    """A ValueError unless every basis index of the stored bracket values,
    squares and Chevalley elements is one of "0" .. str(dim - 1), as
    superalgebra_to_dict writes them; one pass over the keys.  The bracket
    keys need no check here: Superalgebra rejects a pair outside
    0 <= i <= j < dim."""
    indices = frozenset(map(str, range(len(o["labels"]))))
    squares = o.get("squares", {})
    elements = list(o["brackets"].values()) + list(squares.values())
    elements += [e for v in (o.get("chevalley") or {}).values() for e in v]
    if not indices.issuperset(set().union(squares, *elements)):
        raise ValueError(f"a basis index outside [0, {len(indices)})")


def superalgebra_to_dict(g: Superalgebra) -> dict:
    fld = g.field
    out = {
        "field": {"p": fld.p, "parametric": fld.spec.parametric},
        "labels": g.labels,
        "parities": g.parities,
        "weights": [list(w) if w is not None else None for w in g.weights]
        if g.weights is not None else None,
        "brackets": {f"{i},{j}": element_to_obj(fld, v)
                     for (i, j), v in sorted(g.brackets.items())},
    }
    if fld.p == 2:
        out["squares"] = {str(i): element_to_obj(fld, v)
                          for i, v in sorted((g.squares or {}).items())}
    if g.chevalley is not None:
        out["chevalley"] = {k: [element_to_obj(fld, e) for e in v]
                            for k, v in sorted(g.chevalley.items())}
    return out


def superalgebra_from_dict(o: dict) -> Superalgebra:
    """The algebra of superalgebra_to_dict; an index outside [0, dim) in a
    bracket, a square or a Chevalley element is a ValueError."""
    _check_indices(o)
    fld = field_for(o["field"]["p"], o["field"]["parametric"])
    brackets = {}
    for key, v in o["brackets"].items():
        i, j = key.split(",")
        brackets[(int(i), int(j))] = element_from_obj(fld, v)
    squares = None
    if fld.p == 2:
        squares = {int(i): element_from_obj(fld, v)
                   for i, v in o.get("squares", {}).items()}
    weights = None
    if o.get("weights") is not None:
        weights = [tuple(w) if w is not None else None for w in o["weights"]]
    chev = None
    if o.get("chevalley") is not None:
        chev = {k: [element_from_obj(fld, e) for e in v]
                for k, v in o["chevalley"].items()}
    return Superalgebra(fld, o["labels"], o["parities"], brackets, squares,
                        weights, chevalley=chev)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_to_dict(spec: CartanSpec) -> dict:
    return {
        "key": spec.key,
        "p": spec.p,
        "entries": [[list(e) if isinstance(e, tuple) else e for e in row]
                    for row in spec.entries],
        "parities": spec.parities,
        "expected_sdim": spec.expected_sdim,
        "source_row": spec.source_row,
    }


def spec_from_dict(o: dict) -> CartanSpec:
    entries = [[tuple(e) if isinstance(e, list) else e for e in row]
               for row in o["entries"]]
    return CartanSpec(key=o["key"], p=o["p"], entries=entries,
                      parities=o["parities"], expected_sdim=o.get("expected_sdim"),
                      source_row=o.get("source_row"))


def spec_digest(spec: CartanSpec, degree_cap: int) -> str:
    payload = canonical_json({"spec": spec_to_dict(spec), "cap": degree_cap,
                              "format": CACHE_FORMAT})
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _node_to_obj(nd: _Node):
    return [list(nd.word), list(nd.root), nd.parity, nd.degree]


def _node_from_obj(o) -> _Node:
    return _Node(word=tuple(o[0]), root=tuple(o[1]), parity=o[2], degree=o[3])


def build_result_to_dict(b: BuildResult) -> dict:
    return {
        "spec": spec_to_dict(b.spec),
        "algebra": superalgebra_to_dict(b.algebra),
        "n": b.n,
        "n_grading": b.n_grading,
        "pos_roots": [[list(r), p] for r, p in b.pos_roots],
        "chevalley": b.chevalley,
        "profile": b.profile,
        "pos_nodes": [_node_to_obj(nd) for nd in b.pos_nodes],
        "neg_nodes": [_node_to_obj(nd) for nd in b.neg_nodes],
        "pos_order": b.pos_order,
        "neg_order": b.neg_order,
    }


def build_result_from_dict(o: dict) -> BuildResult:
    spec = spec_from_dict(o["spec"])
    alg = superalgebra_from_dict(o["algebra"])
    return BuildResult(
        spec=spec, field=alg.field, algebra=alg, n=o["n"], n_grading=o["n_grading"],
        pos_roots=[(tuple(r), p) for r, p in o["pos_roots"]],
        chevalley={k: list(v) for k, v in o["chevalley"].items()},
        profile=o["profile"],
        pos_nodes=[_node_from_obj(x) for x in o["pos_nodes"]],
        neg_nodes=[_node_from_obj(x) for x in o["neg_nodes"]],
        pos_order=o["pos_order"], neg_order=o["neg_order"])


def serialize_build(b: BuildResult) -> str:
    return canonical_json(build_result_to_dict(b))


def cache_path(cache_dir: str, spec: CartanSpec, degree_cap: int) -> str:
    return os.path.join(cache_dir, f"{spec_digest(spec, degree_cap)}.json")


def cache_load(cache_dir: Optional[str], spec: CartanSpec,
               degree_cap: int) -> Optional[BuildResult]:
    if not cache_dir:
        return None
    try:
        with open(cache_path(cache_dir, spec, degree_cap)) as fh:
            b = build_result_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError):
        return None  # unreadable, truncated or malformed: a miss, rebuilt and overwritten
    if spec.expected_sdim and b.sdim != parse_sdim(spec.expected_sdim)[0]:
        return None  # stale: the same check build_g_of_A makes
    return b


def ensure_cache_dir(cache_dir: str) -> None:
    """Create the cache directory if needed; a CacheError naming it when it
    cannot be created or written."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise CacheError(f"cache directory {cache_dir} cannot be created: "
                         f"{exc.strerror}") from None
    if not os.access(cache_dir, os.W_OK | os.X_OK):
        raise CacheError(f"cache directory {cache_dir} cannot be written")


def cache_store(cache_dir: Optional[str], spec: CartanSpec, degree_cap: int,
                b: BuildResult) -> Optional[str]:
    if not cache_dir:
        return None
    ensure_cache_dir(cache_dir)
    path = cache_path(cache_dir, spec, degree_cap)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(serialize_build(b))
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise CacheError(f"cache entry {path} cannot be written: {exc.strerror}") from None
    return path
