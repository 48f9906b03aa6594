"""The radical-recursion builder against the worked cases."""

import hashlib

import pytest

from dslie.build import BuildError, build_g_of_A, parse_sdim
from dslie.cartan import CartanSpec
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import gl
from dslie.serialize import serialize_build

BRJ = [[0, -1], [-2, 1]]


def test_sl2():
    b = build_g_of_A(CartanSpec(key="sl2", p=0, entries=[[2]], parities=[0]))
    assert b.algebra.dim == 3
    assert b.pos_roots == [((1,), 0)]
    # ad(h) is diagonal with entries 0, 2, -2
    f = b.field
    adh = b.algebra.ad_matrix({0: f.one})
    diag = sorted(int(adh.rows[i][i]) for i in range(3))
    assert diag == [-2, 0, 2]


def test_brj25_roots_and_parities():
    b = build_g_of_A(CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1],
                                expected_sdim="10|12"))
    assert b.sdim == (10, 12)
    want = [((1, 0), 1), ((0, 1), 1), ((1, 1), 0), ((0, 2), 0), ((1, 2), 1),
            ((1, 3), 0), ((2, 3), 1), ((1, 4), 1), ((2, 4), 0), ((2, 5), 1)]
    assert b.pos_roots == want
    assert b.algebra.check_axioms() == []


def test_brj23_same_matrix_different_p():
    b = build_g_of_A(CartanSpec(key="brj23", p=3, entries=BRJ, parities=[1, 1],
                                expected_sdim="10|8"))
    assert b.sdim == (10, 8)
    assert len(b.pos_roots) == 8
    assert b.algebra.check_axioms() == []


def test_sdim_mismatch_is_hard_failure():
    with pytest.raises(BuildError):
        build_g_of_A(CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1],
                                expected_sdim="10|10"))


def test_degree_cap_reports_profile():
    # sl(2)-hat style growth: affine matrix is infinite-dimensional over QQ
    with pytest.raises(BuildError) as err:
        build_g_of_A(CartanSpec(key="affine", p=0,
                                entries=[[2, -2], [-2, 2]], parities=[0, 0]),
                     degree_cap=12)
    assert "profile" in str(err.value)


def test_defining_relations_hold():
    b = build_g_of_A(CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1]))
    g = b.algebra
    f = b.field
    n = b.n
    for i in range(n):
        hi = {b.chevalley["h"][i]: f.one}
        for j in range(n):
            ej = {b.chevalley["e"][j]: f.one}
            fj = {b.chevalley["f"][j]: f.one}
            aij = b.spec.entry_scalar(f, i, j)
            assert g.bracket(hi, ej) == ({b.chevalley["e"][j]: aij}
                                         if not f.is_zero(aij) else {})
            w = g.bracket({b.chevalley["e"][i]: f.one}, fj)
            assert w == ({b.chevalley["h"][i]: f.one} if i == j else {})


def test_root_symmetry_bgl4():
    b = build_catalog_algebra("bgl(4;alpha)", 2)
    roots = {}
    for r, _p in b.pos_roots:
        roots[r] = roots.get(r, 0) + 1
    # per-root multiplicities on the negative side agree by construction;
    # assert the count via basis weights
    g = b.algebra
    for r, mult in roots.items():
        neg = tuple(-c for c in r)
        cnt = sum(1 for w in g.weights if w == neg)
        assert cnt == mult


def test_permuted_generators_same_fingerprint():
    A = [[0, -1], [-2, 1]]
    Aperm = [[1, -2], [-1, 0]]  # swap the two vertices
    b1 = build_g_of_A(CartanSpec(key="a", p=5, entries=A, parities=[1, 1]))
    b2 = build_g_of_A(CartanSpec(key="b", p=5, entries=Aperm, parities=[1, 1]))
    assert b1.sdim == b2.sdim
    assert b1.algebra.fingerprint() == b2.algebra.fingerprint()
    m1 = sorted(tuple(sorted((r[0] + r[1], p) for r, p in b1.pos_roots)))
    m2 = sorted(tuple(sorted((r[0] + r[1], p) for r, p in b2.pos_roots)))
    assert m1 == m2  # root multiset matches up to the vertex relabeling


def test_gl22_from_cartan_matches_classical():
    spec = CartanSpec(key="gl22", p=0,
                      entries=[[0, 1, 0], [1, 0, -1], [0, -1, 0]],
                      parities=[1, 1, 1])
    b = build_g_of_A(spec)
    assert b.sdim == (8, 8)
    assert b.n_grading == 1
    assert b.algebra.fingerprint() == gl(2, 2, 0).fingerprint()


def test_parse_sdim():
    assert parse_sdim("12/10|14") == ((12, 14), (10, 14))
    assert parse_sdim("10|12") == ((10, 12), None)


def test_x_element_parsing():
    b = build_g_of_A(CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1]))
    el = b.x_element("x1+x10")
    assert len(el) == 2
    with pytest.raises(ValueError):
        b.x_element("x11")
    with pytest.raises(ValueError):
        b.x_element("y1")


# sha256 (first 16 hex digits) of serialize_build for each catalog entry, built
# cold; recorded before the builder and the module recursion shared one step
BUILD_PINS = {
    "ab(3)@p5": "9a4a282f8eda1435",
    "ab(3)@p7": "06b025ff9e8b52c7",
    "ab(3)@p11": "3e3266c9ce95e965",
    "ag(2)@p5": "6425c1605e34419b",
    "ag(2)@p7": "f7e7101164bb0c21",
    "ag(2)@p11": "b4e550defbf5463b",
    "bgl(3;alpha)@p2": "a5dde9101a07eaa7",
    "bgl(4;alpha)@p2": "19403786ed1d11e2",
    "brj(2;3)@p3": "1fd0f2a5d1cb7a2e",
    "brj(2;5)@p5": "4d1d9c686d39ecd8",
    "e(6)@p3": "54da188cc65489cd",
    "e(6,1)@p2": "5f55d25b411f379f",
    "e(6,6)@p2": "c936cd5549b475bc",
    "e(7,1)@p2": "2873223f8ad49c2f",
    "e(7,6)@p2": "b4c73bac05cdafb9",
    "e(7,7)@p2": "0b12c855ff9157d1",
    "e(8,1)@p2": "a90a5d29003a135f",
    "e(8,8)@p2": "e5410fd9b7e0c678",
    "el(5;3)@p3": "16d225af7ce4e341",
    "el(5;5)@p5": "0ac342f1b4c8bd94",
    "g(1,6)@p3": "437a2a29477fd3a0",
    "g(2,3)@p3": "bd50afa36d049398",
    "g(2,6)@p3": "1082fda56872f13f",
    "g(3,3)@p3": "cad2d7ce30cb8e14",
    "g(3,6)@p3": "af7d81ef756caa87",
    "g(4,3)@p3": "582b42a150213645",
    "g(4,6)@p3": "b769f99b5b03f1de",
    "g(6,6)@p3": "5c5b28c33efeb5f5",
    "g(8,3)@p3": "a55c81088e5b44c2",
    "g(8,6)@p3": "584f24163dc58d10",
    "osp(4|2;a)@p5": "eb8785b03a898a94",
    "osp(4|2;a)@p7": "bd65dc97e48433e2",
    "osp(4|2;a)@p11": "23ce7445ad2671c0",
}


def test_catalog_builds_are_pinned():
    got = {f"{e.key}@p{e.p}": hashlib.sha256(
        serialize_build(build_g_of_A(e.spec())).encode()).hexdigest()[:16]
        for e in all_entries()}
    assert got == BUILD_PINS
