"""Byte-stable serialization and the content-addressed build cache."""

import hashlib
import json
import os
import shutil

import pytest

from dslie.build import build_g_of_A
from dslie.cartan import CartanSpec
from dslie.audit import _parse_weight_entry
from dslie.catalog import all_entries, build_catalog_algebra
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
