"""Byte-stable serialization and the content-addressed build cache."""

import hashlib
import json
import os
import shutil

import pytest

from dslie.build import build_g_of_A
from dslie.cartan import CartanSpec
from dslie.audit import _parse_weight_entry
from dslie.catalog import all_entries, build_catalog_algebra, catalog_get
from dslie.modules import build_irreducible
from dslie.serialize import (build_result_from_dict, build_result_to_dict,
                             cache_load, cache_path, cache_store, serialize_build,
                             spec_digest, superalgebra_from_dict,
                             superalgebra_to_dict)
from helpers import el_to_dense
from test_subquotient import _p2_heisenberg

BRJ = [[0, -1], [-2, 1]]


def _spec():
    return CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1],
                      expected_sdim="10|12")


def test_serialize_byte_stable():
    b1 = build_g_of_A(_spec())
    b2 = build_g_of_A(_spec())
    assert serialize_build(b1) == serialize_build(b2)


def test_superalgebra_roundtrip():
    b = build_g_of_A(_spec())
    d = superalgebra_to_dict(b.algebra)
    g2 = superalgebra_from_dict(json.loads(json.dumps(d)))
    assert g2.labels == b.algebra.labels
    assert g2.brackets == b.algebra.brackets
    assert g2.weights == b.algebra.weights


def test_parametric_roundtrip():
    spec = CartanSpec(key="bgl3", p=2,
                      entries=[[0, 1, 0], [1, 0, ("a", 1)], [0, ("a", 1), 0]],
                      parities=[1, 1, 1])
    b = build_g_of_A(spec)
    d = build_result_to_dict(b)
    b2 = build_result_from_dict(json.loads(json.dumps(d)))
    assert b2.algebra.brackets == b.algebra.brackets
    assert b2.algebra.squares == b.algebra.squares
    assert b2.pos_roots == b.pos_roots


def test_cache_roundtrip(tmp_path):
    cd = str(tmp_path)
    spec = _spec()
    assert cache_load(cd, spec, 40) is None
    b = build_g_of_A(spec)
    path = cache_store(cd, spec, 40, b)
    assert os.path.exists(path)
    b2 = cache_load(cd, spec, 40)
    assert serialize_build(b2) == serialize_build(b)


def test_warm_cache_identical(tmp_path):
    cd = str(tmp_path)
    cold = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    warm = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    assert serialize_build(cold) == serialize_build(warm)


def test_digest_distinguishes_specs():
    s1 = _spec()
    s2 = CartanSpec(key="brj23", p=3, entries=BRJ, parities=[1, 1])
    assert spec_digest(s1, 40) != spec_digest(s2, 40)
    assert spec_digest(s1, 40) != spec_digest(s1, 41)


# sha256 (first 16 hex digits) of each catalog module's basis data and of the
# action matrix of every algebra basis element on it; recorded before the
# builder and the module recursion shared one step
MODULE_PINS = {
    "bgl(3;alpha)@p2/M": "099967e7296c3d3d",
    "bgl(3;alpha)@p2/Msub": "7c63432d33c40c9f",
    "bgl(4;alpha)@p2/M": "3d97198f649d437a",
    "e(6,1)@p2/M": "4bad560271f77dba",
    "e(6,6)@p2/M": "6357fbe764099acf",
    "el(5;3)@p3/M": "19787de4e64eb202",
}


def _module_digest(b, m) -> str:
    lam = [_parse_weight_entry(b.field, s) for s in m["weight"]]
    rep = build_irreducible(b, lam, hw_parity=m.get("hw_parity", 0), name=m["name"])
    h = hashlib.sha256(repr((rep.labels, rep.parities, rep.degrees,
                             rep.f_act, rep.e_act)).encode())
    for k in range(b.algebra.dim):  # the action rows densified, as the pins were taken
        h.update(repr([el_to_dense(b.field, r, rep.dim) for r in rep.action_matrix(k)]).encode())
    return h.hexdigest()[:16]


def test_cached_build_supports_modules(tmp_path):
    cd = str(tmp_path)
    fresh, loaded = {}, {}
    for e in all_entries():
        if not e.modules:
            continue
        b = build_catalog_algebra(e.key, e.p, cache_dir=cd)
        b2 = build_catalog_algebra(e.key, e.p, cache_dir=cd)  # from cache
        for m in e.modules:
            name = f"{e.key}@p{e.p}/{m['name']}"
            fresh[name] = _module_digest(b, m)
            loaded[name] = _module_digest(b2, m)
    assert fresh == loaded == MODULE_PINS


def test_truncated_cache_entry_is_rebuilt(tmp_path):
    cd = str(tmp_path)
    cold = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    (path,) = [os.path.join(cd, name) for name in os.listdir(cd)]
    with open(path, "r+") as fh:
        fh.truncate(100)
    spec = cold.spec
    assert cache_load(cd, spec, 40) is None
    rebuilt = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    assert serialize_build(cache_load(cd, spec, 40)) == serialize_build(cold)


@pytest.mark.parametrize("part", ["brackets", "chevalley"])
def test_cache_entry_with_an_index_out_of_range_is_rebuilt(tmp_path, part):
    """An element key outside [0, dim) in a stored bracket or Chevalley
    element of the dim-22 brj(2;5) makes the entry a miss: it is rebuilt
    and overwritten."""
    cd = str(tmp_path)
    cold = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    (path,) = [os.path.join(cd, name) for name in os.listdir(cd)]
    with open(path) as fh:
        o = json.load(fh)
    store = o["algebra"][part]
    first = next(iter(store))
    if part == "chevalley":
        store[first][0] = {"999": 1}
    else:
        store[first] = {"999": 1}
    with open(path, "w") as fh:
        json.dump(o, fh)
    assert cache_load(cd, cold.spec, 40) is None
    rebuilt = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    with open(path) as fh:
        assert fh.read() == serialize_build(cold)


def test_squares_with_an_index_out_of_range_are_rejected():
    """No catalog build stores a nonzero square, so the square checks run on
    the p = 2 Heisenberg algebra: an out-of-range key in a square's value
    or an out-of-range squared index is a ValueError, which cache_load
    reads as a miss.  An out-of-range bracket key is the ValueError of the
    Superalgebra constructor."""
    d = superalgebra_to_dict(_p2_heisenberg())
    assert d["squares"]
    assert superalgebra_from_dict(d).squares == _p2_heisenberg().squares
    first = next(iter(d["squares"]))
    for bad in ({**d["squares"], first: {"999": 1}}, {**d["squares"], "-1": {"0": 1}}):
        with pytest.raises(ValueError, match="outside"):
            superalgebra_from_dict({**d, "squares": bad})
    with pytest.raises(ValueError, match="bad bracket key"):
        superalgebra_from_dict({**d, "brackets": {**d["brackets"], "0,999": {"0": 1}}})


def test_stale_cache_entry_is_rebuilt(tmp_path):
    cd = str(tmp_path)
    other = build_catalog_algebra("brj(2;3)", 3, cache_dir=cd)
    cold = build_catalog_algebra("brj(2;5)", 5)
    spec = cold.spec
    # a readable file of the wrong algebra sits at the brj(2;5) path
    shutil.copy(cache_path(cd, other.spec, 40), cache_path(cd, spec, 40))
    assert cache_load(cd, spec, 40) is None
    rebuilt = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    assert serialize_build(cache_load(cd, spec, 40)) == serialize_build(cold)


def _corrupt_first_scalar(path: str, value) -> None:
    """Replace the first scalar of the first stored bracket of a cache entry."""
    with open(path) as fh:
        o = json.load(fh)
    brackets = o["algebra"]["brackets"]
    first = brackets[next(iter(brackets))]
    first[next(iter(first))] = value
    with open(path, "w") as fh:
        json.dump(o, fh)


@pytest.mark.parametrize("key,p,value", [
    ("brj(2;5)", 5, 5),                    # GF(5) value equal to p
    ("brj(2;5)", 5, -1),                   # GF(5) value below 0
    ("bgl(3;alpha)", 2, [[1], []]),        # empty denominator
    ("bgl(3;alpha)", 2, [[2], [1]]),       # GF(2) coefficient outside [0, 2)
    ("bgl(3;alpha)", 2, [[1], [1, 0]]),    # trailing zero: not monic
    ("bgl(3;alpha)", 2, [[0, 1], [0, 1]]),  # a/a: a common factor
    ("bgl(3;alpha)", 2, [[], [0, 1]]),     # 0 over a, not over 1
    ("osp(4|2;a)", 5, [[1], [2]]),         # non-monic denominator
    ("osp(4|2;a)", 5, [[1, 5], [1]]),      # GF(5)(a) coefficient equal to p
], ids=lambda v: str(v).replace(" ", ""))
def test_cache_entry_with_a_non_canonical_scalar_is_rebuilt(tmp_path, key, p, value):
    """A scalar that is not in canonical form would load as a wrong constant
    (a GF(5) coefficient 5 is a nonzero constant that is 0 in the field,
    and Jacobi fails); an empty denominator would load and answer.  Each
    makes the entry a miss: it is rebuilt and overwritten, equal to a fresh
    build."""
    cd = str(tmp_path)
    cold = build_catalog_algebra(key, p, cache_dir=cd)
    path = cache_path(cd, cold.spec, 40)
    _corrupt_first_scalar(path, value)
    assert cache_load(cd, cold.spec, 40) is None
    rebuilt = build_catalog_algebra(key, p, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    assert serialize_build(rebuilt) == serialize_build(build_catalog_algebra(key, p))
    with open(path) as fh:
        assert fh.read() == serialize_build(cold)


@pytest.mark.parametrize("value", ["1/0", [["1/0"], ["1"]]], ids=["QQ", "QQ(a)"])
def test_cache_entry_with_a_zero_denominator_is_a_miss(tmp_path, value):
    """Fraction("1/0") is a ZeroDivisionError, which cache_load counts as a
    miss like any other unreadable entry."""
    cd = str(tmp_path)
    if isinstance(value, list):  # the osp(4|2;a) matrix over QQ(a)
        osp = catalog_get("osp(4|2;a)", 5).spec()
        spec = CartanSpec(key="osp42a", p=0, entries=osp.entries, parities=osp.parities)
    else:
        spec = CartanSpec(key="gl22", p=0, entries=[[0, 1, 0], [1, 0, -1], [0, -1, 0]],
                          parities=[1, 1, 1])
    cold = build_g_of_A(spec, degree_cap=40)
    path = cache_store(cd, spec, 40, cold)
    assert serialize_build(cache_load(cd, spec, 40)) == serialize_build(cold)
    _corrupt_first_scalar(path, value)
    assert cache_load(cd, spec, 40) is None
    cache_store(cd, spec, 40, build_g_of_A(spec, degree_cap=40))
    assert serialize_build(cache_load(cd, spec, 40)) == serialize_build(cold)


def _flip_parities(roots: list) -> list:
    return [[r, 1 - p] for r, p in roots]


# edits of one field of a brj(2;5) cache entry that load without them as a
# wrong algebra or a wrong build: an IndexError in ds, a wrong df or sweep
# count in defect, or a silently malformed algebra
CORRUPT_FIELDS = {
    "weights cut to 3": lambda o: o["algebra"].update(weights=o["algebra"]["weights"][:3]),
    "n = 7": lambda o: o.update(n=7),
    "pos_roots cut to 2": lambda o: o.update(pos_roots=o["pos_roots"][:2]),
    "pos_roots parities flipped": lambda o: o.update(pos_roots=_flip_parities(o["pos_roots"])),
    "parity 2": lambda o: o["algebra"]["parities"].__setitem__(
        o["algebra"]["parities"].index(1), 2),  # an odd one: the sdim check passes
    "label repeated": lambda o: o["algebra"]["labels"].__setitem__(1, o["algebra"]["labels"][0]),
    "chevalley e moved": lambda o: o["chevalley"]["e"].__setitem__(0, o["chevalley"]["f"][0]),
    "pos_order cut": lambda o: o.update(pos_order=o["pos_order"][:-1]),
    "neg_nodes cut": lambda o: o.update(neg_nodes=o["neg_nodes"][:-1]),
    # node and order edits made on both sides alike, unless named
    "generator words swapped": lambda o: _both_sides(o, _swap_words),
    "node root moved": lambda o: _both_sides(o, lambda nodes: _edit_node(nodes, 1, [0, 0])),
    "node parity flipped": lambda o: _both_sides(o, lambda nodes: _edit_node(nodes, 2, 1)),
    "node degree changed": lambda o: _both_sides(o, lambda nodes: _edit_node(nodes, 3, 3)),
    "bracket of a later node": lambda o: _both_sides(
        o, lambda nodes: nodes[2][0].__setitem__(2, 2)),
    "pos_order repeated": lambda o: [o[k].__setitem__(1, o[k][0])
                                     for k in ("pos_order", "neg_order")],
    "pos_order swapped": lambda o: [_swap(o[k], 0, 2) for k in ("pos_order", "neg_order")],
    "neg_nodes words swapped": lambda o: _swap_words(o["neg_nodes"]),
    "neg_order swapped": lambda o: _swap(o["neg_order"], 0, 2),
}


def _swap(xs: list, a: int, b: int) -> None:
    xs[a], xs[b] = xs[b], xs[a]


def _swap_words(nodes: list) -> None:
    """The words of generator nodes 0 and 1 exchanged."""
    nodes[0][0], nodes[1][0] = nodes[1][0], nodes[0][0]


def _edit_node(nodes: list, field: int, value) -> None:
    """One field (1 root, 2 parity, 3 degree) of the first bracket node set."""
    nodes[2][field] = value


def _both_sides(o: dict, edit) -> None:
    for key in ("pos_nodes", "neg_nodes"):
        edit(o[key])


def test_brj_nodes_edited_here():
    """The node edits above hit what they name: in brj(2;5) node 2 is the
    first bracket [X_1, X_0] (root (1, 1), even, degree 2), and pos_order
    positions 0 and 2 hold nodes of different roots."""
    o = build_result_to_dict(build_g_of_A(_spec()))
    assert o["pos_nodes"][2] == [["br", 1, 0], [1, 1], 0, 2]
    assert o["pos_roots"][0] != o["pos_roots"][2]


def test_swapped_generator_words_are_a_miss(tmp_path):
    """A bgl(3;alpha) p = 2 entry with the words of generator nodes 0 and 1
    exchanged on both sides loaded as a build whose module actions differ
    from a fresh build's; it is a miss, and the rebuilt entry's modules
    keep their pins."""
    cd = str(tmp_path)
    ent = catalog_get("bgl(3;alpha)", 2)
    cold = build_catalog_algebra(ent.key, ent.p, cache_dir=cd)
    path = cache_path(cd, cold.spec, 40)
    with open(path) as fh:
        o = json.load(fh)
    _both_sides(o, _swap_words)
    with open(path, "w") as fh:
        json.dump(o, fh)
    assert cache_load(cd, cold.spec, 40) is None
    rebuilt = build_catalog_algebra(ent.key, ent.p, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    (m,) = [m for m in ent.modules if m["name"] == "M"]
    assert _module_digest(rebuilt, m) == MODULE_PINS["bgl(3;alpha)@p2/M"]


@pytest.mark.parametrize("name", list(CORRUPT_FIELDS))
def test_cache_entry_that_does_not_fit_its_algebra_is_rebuilt(tmp_path, name):
    """Each edit makes the entry a miss: it is rebuilt and overwritten,
    equal to a fresh build."""
    cd = str(tmp_path)
    cold = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    path = cache_path(cd, cold.spec, 40)
    with open(path) as fh:
        o = json.load(fh)
    CORRUPT_FIELDS[name](o)
    with open(path, "w") as fh:
        json.dump(o, fh)
    assert cache_load(cd, cold.spec, 40) is None
    rebuilt = build_catalog_algebra("brj(2;5)", 5, cache_dir=cd)
    assert serialize_build(rebuilt) == serialize_build(cold)
    with open(path) as fh:
        assert fh.read() == serialize_build(cold)
