"""The radical-recursion builder against the worked cases."""

import hashlib

import pytest

from dslie.build import BuildError, _Side, build_g_of_A, parse_sdim
from dslie.cartan import CartanSpec
from dslie.catalog import all_entries, build_catalog_algebra, catalog_get
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
    diag = sorted(int(adh[i].get(i, f.zero)) for i in range(3))
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


@pytest.fixture(scope="module")
def catalog_builds():
    """Every catalog entry built cold, once for all the tests of this module."""
    return {f"{e.key}@p{e.p}": build_g_of_A(e.spec()) for e in all_entries()}


def test_catalog_builds_are_pinned(catalog_builds):
    got = {name: hashlib.sha256(serialize_build(b).encode()).hexdigest()[:16]
           for name, b in catalog_builds.items()}
    assert got == BUILD_PINS


# Cartan data built by hand, outside the catalog: over QQ, QQ(a) and small p
HAND_SPECS = {
    "G(3)": CartanSpec(key="G3", p=0, entries=[[0, 1, 0], [-1, 2, -3], [0, -1, 2]],
                       parities=[1, 0, 0]),
    "F(4)": CartanSpec(key="F4", p=0, entries=[[0, 1, 0, 0], [-1, 2, -2, 0],
                                               [0, -1, 2, -1], [0, 0, -1, 2]],
                       parities=[1, 0, 0, 0]),
    "sl(2|1)": CartanSpec(key="sl21", p=0, entries=[[2, -1], [-1, 0]], parities=[0, 1]),
    "sl(2|1) swapped": CartanSpec(key="sl21b", p=0, entries=[[0, -1], [-1, 2]],
                                  parities=[1, 0]),
    "osp(4|2;a)": CartanSpec(key="osp42a", p=0, entries=[[0, 1, ("a", 1)], [-1, 2, 0],
                                                         [-1, 0, 2]], parities=[1, 0, 0]),
    "gl(2|2)": CartanSpec(key="gl22", p=0, entries=[[0, 1, 0], [1, 0, -1], [0, -1, 0]],
                          parities=[1, 1, 1]),
    "osp(3|2)": CartanSpec(key="osp32", p=0, entries=[[0, 1], [-1, 1]], parities=[1, 1]),
    "osp(1|2)": CartanSpec(key="osp12", p=0, entries=[[2]], parities=[1]),
    "g2": CartanSpec(key="g2", p=0, entries=[[2, -1], [-3, 2]], parities=[0, 0]),
    "g2@p7": CartanSpec(key="g2p7", p=7, entries=[[2, -1], [-3, 2]], parities=[0, 0]),
    "osp(3|2)@p5": CartanSpec(key="osp32p5", p=5, entries=[[0, 1], [-1, 1]],
                              parities=[1, 1]),
    "gl(2|2)@p2": CartanSpec(key="gl22p2", p=2, entries=[[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                             parities=[1, 1, 1]),
    "osp(4|2;a)@p3": CartanSpec(key="osp42a3", p=3, entries=[[0, 1, ("a", 1)], [-1, 2, 0],
                                                             [-1, 0, 2]], parities=[1, 0, 0]),
    "osp(1|2)@p2": CartanSpec(key="osp12p2", p=2, entries=[[1]], parities=[1]),
    "osp(1|4)@p2": CartanSpec(key="osp14p2", p=2, entries=[[1, 1], [1, 0]], parities=[1, 0]),
}

# sha256 (first 16 hex digits) of serialize_build, recorded while g(A) was
# still built from two triangular sides and every mixed bracket recursively
HAND_PINS = {
    "G(3)": ("6aefbb01254336ae", (17, 14)),
    "F(4)": ("ca23450e8ab15583", (24, 16)),
    "sl(2|1)": ("427b9a187268d422", (4, 4)),
    "sl(2|1) swapped": ("c3b2abd6d13018c2", (4, 4)),
    "osp(4|2;a)": ("56effc3a3f360451", (9, 8)),
    "gl(2|2)": ("4f09126e07ca7d8a", (8, 8)),
    "osp(3|2)": ("a6e70a4346569d15", (6, 6)),
    "osp(1|2)": ("4f9bf5e26bfa9344", (3, 2)),
    "g2": ("14b77f8df2521468", (14, 0)),
    "g2@p7": ("cd57023ddc11d805", (14, 0)),
    "osp(3|2)@p5": ("0c25e1af210f86e8", (6, 6)),
    "gl(2|2)@p2": ("aae68e14fe13ef60", (8, 8)),
    "osp(4|2;a)@p3": ("d04aafeb93a3545d", (9, 8)),
    # recorded when a square node s(z) on the positive side first built: at
    # p = 2, an odd root z with 2 root(z) a root; the dimensions are those
    # of osp(1|2) and osp(1|4) at p = 0
    "osp(1|2)@p2": ("0a32ea30e8c1265e", (3, 2)),
    "osp(1|4)@p2": ("125b840933f65122", (10, 4)),
}


@pytest.mark.parametrize("name", sorted(HAND_PINS))
def test_hand_built_algebras_are_pinned(name):
    b = build_g_of_A(HAND_SPECS[name])
    got = hashlib.sha256(serialize_build(b).encode()).hexdigest()[:16]
    assert (got, b.sdim) == HAND_PINS[name]
    assert b.algebra.check_axioms() == []


def _off_the_grading(g):
    """The stored constants that leave g's root grading: a key m of
    [b_a, b_b] whose weight is not w_a + w_b, or a key m of s(b_a) whose
    weight is not 2 w_a, as (a, b, m) (b = a for a square)."""
    w = g.weights

    def plus(u, v):
        return tuple(x + y for x, y in zip(u, v))
    out = [(a, b, m) for (a, b), v in g.brackets.items() for m in v
           if w[m] != plus(w[a], w[b])]
    out += [(a, a, m) for a, v in (g.squares or {}).items() for m in v
            if w[m] != plus(w[a], w[a])]
    return out


def test_stored_constants_respect_the_root_grading(catalog_builds):
    # the fact the builder's fill rests on: a pair whose weights do not sum
    # to a weight of the basis has bracket 0
    builds = dict(catalog_builds)
    builds.update((name, build_g_of_A(spec)) for name, spec in HAND_SPECS.items())
    assert {name: _off_the_grading(b.algebra) for name, b in builds.items()} == \
        {name: [] for name in builds}
    assert any(b.algebra.squares for b in builds.values())


def test_degree_cap_message_is_unchanged():
    with pytest.raises(BuildError) as err:
        build_g_of_A(CartanSpec(key="affine", p=0,
                                entries=[[2, -2], [-2, 2]], parities=[0, 0]),
                     degree_cap=12)
    assert str(err.value) == ("degree cap 12 exceeded; growth profile "
                              "[2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1]")


def _both_sides(spec):
    """The positive side as build_g_of_A makes it, and the negative side with
    the parameters it was built with before it was read off the positive
    one: weights negated and [e_i, f_i] = h_i."""
    fld, n = spec.field(), spec.n
    A = [[spec.entry_scalar(fld, i, j) for j in range(n)] for i in range(n)]

    def weight_of(i, root):
        acc = fld.zero
        for j, c in enumerate(root):
            acc = fld.add(acc, fld.mul(fld.from_int(c), A[i][j]))
        return acc

    minus_one = fld.neg(fld.one)
    cross = [fld.one if (fld.p == 2 or spec.parities[i]) else minus_one for i in range(n)]
    pos = _Side(fld, n, spec.parities, weight_of, cross, 40)
    neg = _Side(fld, n, spec.parities, lambda i, root: fld.neg(weight_of(i, root)),
                [fld.one] * n, 40)
    pos.build()
    neg.build()
    return fld, pos, neg


SIDE_SPECS = [HAND_SPECS["G(3)"], HAND_SPECS["gl(2|2)"], HAND_SPECS["osp(4|2;a)"],
              HAND_SPECS["gl(2|2)@p2"], catalog_get("bgl(3;alpha)", 2).spec(),
              catalog_get("e(6,1)", 2).spec(), catalog_get("brj(2;3)", 3).spec(),
              catalog_get("g(2,3)", 3).spec(), catalog_get("brj(2;5)", 5).spec(),
              catalog_get("osp(4|2;a)", 5).spec(), HAND_SPECS["osp(1|2)@p2"],
              HAND_SPECS["osp(1|4)@p2"]]


@pytest.mark.parametrize("spec", SIDE_SPECS, ids=lambda s: f"{s.key}@p{s.p}")
def test_negative_side_is_the_positive_side(spec):
    fld, pos, neg = _both_sides(spec)
    assert [(nd.word, nd.root, nd.parity, nd.degree) for nd in neg.nodes] == \
        [(nd.word, nd.root, nd.parity, nd.degree) for nd in pos.nodes]
    assert neg.raise_tab == pos.raise_tab
    assert neg.sq_tab == pos.sq_tab
    assert neg.profile == pos.profile
    # the lowering vectors differ by (-1)^{p(j)} in the j-th lowering
    for m, lows in pos.lower.items():
        for j, v in enumerate(lows):
            sgn = fld.neg(fld.one) if spec.parities[j] else fld.one
            assert neg.lower[m][j] == {b: fld.mul(sgn, c) for b, c in v.items()}


def _theta(b, el):
    """The super Chevalley automorphism on an element of a built algebra:
    h -> -h, x_t -> y_t, y_t -> (-1)^{p(y_t)} x_t."""
    f, g = b.field, b.algebra
    nh, npos = b.n + b.n_grading, len(b.pos_roots)
    out = {}
    for k, c in el.items():
        if k < nh:
            out[k] = f.neg(c)
        elif k < nh + npos:
            out[k + npos] = c
        else:
            out[k - npos] = f.neg(c) if g.parities[k] else c
    return out


@pytest.mark.parametrize("make", [
    lambda: build_g_of_A(HAND_SPECS["gl(2|2)"]),
    lambda: build_g_of_A(HAND_SPECS["osp(4|2;a)"]),
    lambda: build_g_of_A(catalog_get("brj(2;5)", 5).spec()),
    lambda: build_g_of_A(catalog_get("bgl(3;alpha)", 2).spec()),
    lambda: build_g_of_A(HAND_SPECS["osp(1|4)@p2"]),
], ids=["gl(2|2)@p0", "osp(4|2;a)@p0", "brj(2;5)@p5", "bgl(3;alpha)@p2", "osp(1|4)@p2"])
def test_chevalley_automorphism_on_the_stored_constants(make):
    b = make()
    g, f = b.algebra, b.field
    nh, npos = b.n + b.n_grading, len(b.pos_roots)
    unit = [{k: f.one} for k in range(g.dim)]
    for u in range(g.dim):
        for v in range(g.dim):
            assert _theta(b, g.bracket(unit[u], unit[v])) == \
                g.bracket(_theta(b, unit[u]), _theta(b, unit[v]))
    if f.p == 2:
        for u in range(g.dim):
            if g.parities[u]:
                assert _theta(b, g.square(unit[u])) == g.square(_theta(b, unit[u]))
    # the mirrored form the builder uses:
    # [x_a, y_b] = -(-1)^{p(a) + p(a)p(b)} theta([x_b, y_a])
    for a in range(npos):
        for c in range(npos):
            pa, pc = g.parities[nh + a], g.parities[nh + c]
            sgn = f.one if (pa + pa * pc) % 2 else f.neg(f.one)
            mirror = _theta(b, g.bracket(unit[nh + c], unit[nh + npos + a]))
            assert g.bracket(unit[nh + a], unit[nh + npos + c]) == \
                {k: f.mul(sgn, w) for k, w in mirror.items()}
