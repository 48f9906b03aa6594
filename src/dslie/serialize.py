"""Byte-stable serialization of built algebras and the on-disk build cache.

Everything is canonical JSON (sorted keys, fixed separators), so repeated
runs produce identical bytes; the cache is keyed by a content digest of
the Cartan data, the degree cap and the file format.  A cache entry that
cannot be read or decoded, that names a basis index outside [0, dim),
that holds a scalar not in canonical form (a GF(p) value outside [0, p),
a K(a) value that is not a reduced fraction with a monic denominator) or
a zero denominator, whose algebra the Superalgebra constructor rejects,
whose build data does not fit its algebra (build_result_from_dict), or
whose algebra disagrees with the spec's expected sdim, is treated as a
miss: it is rebuilt and overwritten.  A cache
directory that cannot be created or written, or an entry that cannot be
written, is a CacheError that names the path; it is not a UsageError, so
no caller takes it for a bad name, and the CLI reports it as a usage
error.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Optional

from .build import BuildResult, _Node, parse_sdim
from .cartan import CartanSpec
from .fields import Field, field_for
from .superalgebra import Superalgebra

CACHE_FORMAT = 1  # bump when the stored layout or the builder's output changes


class CacheError(Exception):
    """A cache directory or entry that cannot be created or written."""


def scalar_converter(fld: Field):
    """The JSON form of a scalar of fld, as one function chosen once per
    field: a GF(p) value as an int, a QQ value as a string, a K(a) value
    as its numerator and denominator coefficient lists (strings over QQ)."""
    if fld.spec.parametric:
        if fld.p:
            return lambda x: [list(x.num), list(x.den)]
        return lambda x: [[str(c) for c in x.num], [str(c) for c in x.den]]
    return int if fld.p else str


def element_to_obj(scalar, el: dict) -> dict:
    """el in JSON form, scalar its field's scalar_converter."""
    return {str(k): scalar(v) for k, v in sorted(el.items())}


def elements_from_obj(fld: Field, objs: list) -> list:
    """The elements of element_to_obj; a ValueError unless every scalar is
    canonical: a GF(p) value in [0, p) (one check over all of objs), a
    K(a) value as FunctionField.canonical takes it."""
    p = fld.p
    if fld.spec.parametric:
        coeff = int if p else Fraction
        return [{int(k): fld.canonical(tuple(map(coeff, v[0])), tuple(map(coeff, v[1])))
                 for k, v in o.items()} for o in objs]
    if not p:
        return [{int(k): Fraction(v) for k, v in o.items()} for o in objs]
    out = [{int(k): int(v) for k, v in o.items()} for o in objs]
    values = set()
    for el in out:
        values.update(el.values())
    if values and (min(values) < 0 or max(values) >= p):
        raise ValueError(f"a GF({p}) value outside [0, {p})")
    return out


def superalgebra_to_dict(g: Superalgebra) -> dict:
    fld = g.field
    scalar = scalar_converter(fld)
    out = {
        "field": {"p": fld.p, "parametric": fld.spec.parametric},
        "labels": g.labels,
        "parities": g.parities,
        "weights": [list(w) if w is not None else None for w in g.weights]
        if g.weights is not None else None,
        "brackets": {f"{i},{j}": element_to_obj(scalar, v)
                     for (i, j), v in sorted(g.brackets.items())},
    }
    if fld.p == 2:
        out["squares"] = {str(i): element_to_obj(scalar, v)
                          for i, v in sorted((g.squares or {}).items())}
    if g.chevalley is not None:
        out["chevalley"] = {k: [element_to_obj(scalar, e) for e in v]
                            for k, v in sorted(g.chevalley.items())}
    return out


def superalgebra_from_dict(o: dict) -> Superalgebra:
    """The algebra of superalgebra_to_dict; an index outside [0, dim) in a
    bracket, a square or a Chevalley element is the Superalgebra
    constructor's ValueError."""
    fld = field_for(o["field"]["p"], o["field"]["parametric"])
    stored = o["brackets"]
    brackets = {}
    for key, v in zip(stored, elements_from_obj(fld, list(stored.values()))):
        i, j = key.split(",")
        brackets[(int(i), int(j))] = v
    squares = None
    if fld.p == 2:
        stored = o.get("squares", {})
        squares = dict(zip(map(int, stored), elements_from_obj(fld, list(stored.values()))))
    weights = None
    if o.get("weights") is not None:
        weights = [tuple(w) if w is not None else None for w in o["weights"]]
    chev = None
    if o.get("chevalley") is not None:
        chev = {k: elements_from_obj(fld, v) for k, v in o["chevalley"].items()}
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
        "neg_nodes": [_node_to_obj(nd) for nd in b.pos_nodes],  # build.py, fact 1
        "pos_order": b.pos_order,
        "neg_order": b.pos_order,
    }


def build_result_from_dict(o: dict) -> BuildResult:
    """The build of build_result_to_dict; a ValueError unless its parts fit
    the algebra: n is the spec's rank, dim = n + n_grading + 2 N for its N
    positive roots, which are the weights and parities of x_1..x_N, the
    Chevalley indices name the algebra's Chevalley elements, the N nodes
    fit their words (_nodes_fit), pos_order is a permutation that lists
    the nodes in the order of the positive roots, and the negative side's
    nodes and order are the positive side's (build.py, fact 1)."""
    spec = spec_from_dict(o["spec"])
    alg = superalgebra_from_dict(o["algebra"])
    b = BuildResult(
        spec=spec, field=alg.field, algebra=alg, n=o["n"], n_grading=o["n_grading"],
        pos_roots=[(tuple(r), p) for r, p in o["pos_roots"]],
        chevalley={k: list(v) for k, v in o["chevalley"].items()},
        profile=o["profile"],
        pos_nodes=[_node_from_obj(x) for x in o["pos_nodes"]], pos_order=o["pos_order"])
    N, nh, one = len(b.pos_roots), b.n + b.n_grading, alg.field.one
    if (b.n != spec.n or nh + 2 * N != alg.dim or alg.weights is None
            or b.pos_roots != list(zip(alg.weights[nh:], alg.parities[nh:nh + N]))
            or {k: [{i: one} for i in v] for k, v in b.chevalley.items()} != alg.chevalley
            or any(len(x) != N for x in (b.pos_nodes, b.pos_order))
            or not _nodes_fit(b.pos_nodes, spec.parities)
            or sorted(b.pos_order) != list(range(N))
            or [(b.pos_nodes[m].root, b.pos_nodes[m].parity) for m in b.pos_order] != b.pos_roots
            or (o["neg_nodes"], o["neg_order"]) != (o["pos_nodes"], o["pos_order"])):
        raise ValueError("build data that does not fit its algebra")
    return b


def _nodes_fit(nodes: list, parities: list) -> bool:
    """Whether each node's root, parity and degree are those its word gives:
    the first n nodes are the generators ('g', i) in order (root e_i, parity
    p_i, degree 1); ('br', i, parent) is [X_i, parent] and ('sq', parent)
    is s(parent) of an odd parent, the parent an earlier node."""
    n = len(parities)
    for m, nd in enumerate(nodes):
        w = nd.word
        if m < n:
            want = (("g", m), tuple(int(j == m) for j in range(n)), parities[m], 1)
        elif w[0] == "br" and len(w) == 3 and 0 <= w[1] < n and 0 <= w[2] < m:
            up = nodes[w[2]]
            want = (w, tuple(a + (j == w[1]) for j, a in enumerate(up.root)),
                    (up.parity + parities[w[1]]) % 2, up.degree + 1)
        elif w[0] == "sq" and len(w) == 2 and 0 <= w[1] < m and nodes[w[1]].parity == 1:
            up = nodes[w[1]]
            want = (w, tuple(2 * a for a in up.root), 0, 2 * up.degree)
        else:
            return False
        if (w, nd.root, nd.parity, nd.degree) != want:
            return False
    return True


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
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError):
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
