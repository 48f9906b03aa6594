"""DS homology, candidates, defect machinery on the worked cases."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie import ds
from dslie.cartan import root_ip, symmetrize
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import abelian, gl, psl
from dslie.ds import (DSError, adjoint_rank, defect_report, ds_homology,
                      homological_candidates, identify, is_homological,
                      isotropic_odd_roots, isotropic_orthogonal_sets,
                      rank_equivalence_check, single_root_candidates)
from dslie.fields import field_for
from dslie.linalg import mat_rank
from dslie.superalgebra import el_add
from dslie.tables import chain_element, family_algebra
from helpers import dense_matrix

QQ = field_for(0)


@pytest.fixture(scope="module")
def brj25(cache_dir):
    return build_catalog_algebra("brj(2;5)", 5, cache_dir=cache_dir)


def test_is_homological(brj25):
    g = brj25.algebra
    f = g.field
    assert is_homological(g, brj25.x_element("x1")) == "odd"
    assert is_homological(g, brj25.x_element("x2")) == "no"
    assert is_homological(g, {brj25.chevalley["h"][0]: f.one}) == "no"


def test_is_homological_gl22_pair():
    g = gl(2, 2, 0)
    f = g.field
    el = el_add(f, {g.labels.index("E1,2"): f.one}, {g.labels.index("E3,4"): f.one})
    assert is_homological(g, el) == "odd"


def test_ds_brj25_x1(brj25):
    res = ds_homology(brj25.algebra, brj25.x_element("x1"))
    assert res.rank_ad == 10
    assert res.sdim_gx == (0, 2)
    assert res.fingerprint.abelian
    assert identify(res, []) == "K^{0|2}"


def test_ds_psl22_x1():
    q = psl(2, 2, 3)
    el = {q.labels.index("E1,2"): q.field.one}
    res = ds_homology(q, el)
    assert res.rank_ad == 6 and res.sdim_gx == (0, 2)


def test_ds_abelian_zero_adjoint():
    a = abelian(0, 2, 3)
    res = ds_homology(a, {1: a.field.one})
    assert res.rank_ad == 0
    assert res.homology.sdim == (0, 2)  # g_x = g


def test_ds_rejects_nonhomological(brj25):
    with pytest.raises(DSError):
        ds_homology(brj25.algebra, brj25.x_element("x2"))


@pytest.mark.parametrize("x", [{}, {0: 0}])
def test_ds_rejects_zero_element(x):
    """x = 0 gets its own message, not the one for a nonzero even element."""
    with pytest.raises(DSError, match=r"^element is not homological: x = 0$"):
        ds_homology(gl(2, 2, 3), x)


def test_ds_drops_zero_coefficients():
    """An explicit zero coefficient does not make an odd x look mixed."""
    g = gl(2, 2, 3)
    x = g.element("x1")
    even = g.parities.index(0)
    res = ds_homology(g, {**x, even: 0})
    assert res.x.element == x
    assert res.sdim_gx == ds_homology(g, x).sdim_gx


def test_zero_coefficients_are_no_support():
    """is_homological and parity_of read a zero coefficient as absent: x = 0
    is not homological even where (ad_x)^2 = 0 holds, and an even index
    with coefficient 0 leaves an odd x odd."""
    assert is_homological(gl(2, 2, 2), {0: 0}) == "no"
    g = gl(2, 2, 3)
    assert g.parities[0] == 0 and g.parities[1] == 1
    assert is_homological(g, {1: 1}) == "odd"
    assert is_homological(g, {1: 1, 0: 0}) == "odd"
    assert g.parity_of({1: 1, 0: 0}) == 1


def test_isotropic_roots_brj25(brj25):
    roots = isotropic_odd_roots(brj25)
    assert sorted(roots) == [(1, 0), (1, 4), (2, 3), (2, 5)]


def test_isotropic_orthogonal_sets_brj25(brj25):
    form = symmetrize(brj25.spec)
    iso = isotropic_orthogonal_sets(brj25, form)
    assert iso["df"] == 1  # no QQ-orthogonal pair among the four
    assert all(len(s) == 1 for s in iso["max_sets"])


def test_isotropic_orthogonal_sets_past_the_cap_is_an_error(brj25, monkeypatch):
    # brj(2;5) has four maximal sets; with room for one the search must
    # fail, not report df and max_sets from the first one
    form = symmetrize(brj25.spec)
    assert len(isotropic_orthogonal_sets(brj25, form)["max_sets"]) == 4
    monkeypatch.setattr(ds, "MAX_ORTHOGONAL_SETS", 1)
    with pytest.raises(DSError, match="MAX_ORTHOGONAL_SETS = 1"):
        isotropic_orthogonal_sets(brj25, form)
    with pytest.raises(DSError, match="MAX_ORTHOGONAL_SETS"):
        defect_report(brj25, form, samples=1)


def _reference_orthogonal_sets(b, form) -> dict:
    """The earlier search: the QQ rank of the whole candidate set at every
    extension step."""
    roots = sorted(isotropic_odd_roots(b), reverse=True)
    K0 = form.field
    orth = {(i, j): K0.is_zero(root_ip(form, r, s))
            for i, r in enumerate(roots) for j, s in enumerate(roots)}

    def independent(idxs):
        rows = [[QQ.from_int(c) for c in roots[i]] for i in idxs]
        return mat_rank(dense_matrix(QQ, rows, b.n)) == len(idxs)

    maximal = []

    def extend(cur, cand):
        ext = [c for c in cand if all(orth[c, x] for x in cur)]
        ext = [c for c in ext if independent(cur + (c,))]
        if not ext:
            if cur and not any(set(cur) < set(mx) for mx in maximal):
                maximal.append(cur)
            return
        for t, c in enumerate(ext):
            extend(cur + (c,), ext[t + 1:])

    extend((), list(range(len(roots))))
    maximal = [m for m in maximal if not any(set(m) < set(m2) for m2 in maximal if m2 != m)]
    return {"isotropic_roots": roots, "max_sets": sorted({tuple(roots[i] for i in m)
                                                          for m in maximal}),
            "df": max((len(m) for m in maximal), default=0)}


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: f"{e.key}@p{e.p}")
def test_isotropic_orthogonal_sets_match_the_rank_reference(ent, cache_dir):
    b = build_catalog_algebra(ent.key, ent.p, cache_dir=cache_dir)
    form = symmetrize(b.spec)
    assert isotropic_orthogonal_sets(b, form) == _reference_orthogonal_sets(b, form)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(-6, 6), st.integers(-10**12, 10**12)),
                         min_size=4, max_size=4), min_size=1, max_size=6))
def test_integer_residual_decides_qq_independence(vectors):
    """Each vector is independent of the ones before it exactly when its
    fraction-free residual by their integer echelon is nonzero: the QQ rank
    goes up by one.  Entries up to 10^12 need no modulus and no bound."""
    span, rank = (), 0
    for t, v in enumerate(vectors):
        res = ds._residual(span, list(v))
        new_rank = mat_rank(dense_matrix(QQ, [[QQ.from_int(c) for c in w]
                                              for w in vectors[:t + 1]], 4))
        assert any(res) == (new_rank == rank + 1)
        if any(res):
            assert math.gcd(*res) == 1
            span += ((next(k for k, x in enumerate(res) if x), res),)
        rank = new_rank


def test_isotropic_orthogonal_sets_gl22_from_cartan():
    from dslie.build import build_g_of_A
    from dslie.cartan import CartanSpec
    spec = CartanSpec(key="gl22", p=0,
                      entries=[[0, 1, 0], [1, 0, -1], [0, -1, 0]],
                      parities=[1, 1, 1])
    b = build_g_of_A(spec)
    form = symmetrize(spec)
    iso = isotropic_orthogonal_sets(b, form)
    assert iso["df"] == 2
    assert ((1, 0, 0), (0, 0, 1)) in iso["max_sets"]


def test_candidates_brj25(brj25):
    form = symmetrize(brj25.spec)
    iso = isotropic_orthogonal_sets(brj25, form)
    cands = homological_candidates(brj25, iso["max_sets"], samples=20)
    descs = [c.description for c in cands if c.kind == "single-root"]
    assert descs == ["x1", "x7", "x8", "x10"]


def test_defect_brj25(brj25):
    form = symmetrize(brj25.spec)
    rep = defect_report(brj25, form, samples=25)
    assert (rep.g_max, rep.df, rep.ndf) == (1, 1, 1)
    assert rep.classes[0].rank_ad == 10


def test_defect_bgl4(cache_dir):
    b = build_catalog_algebra("bgl(4;alpha)", 2, cache_dir=cache_dir)
    form = symmetrize(b.spec)
    rep = defect_report(b, form, samples=10)
    assert rep.g_max == 2
    assert rep.ndf == 3
    assert sorted(c.rank_ad for c in rep.classes) == [10, 14, 16]


def test_rank_equivalence(cache_dir):
    b = build_catalog_algebra("bgl(4;alpha)", 2, cache_dir=cache_dir)
    form = symmetrize(b.spec)
    rep = defect_report(b, form, samples=10)
    chk = rank_equivalence_check(rep.classes)
    assert chk["ok"]


def test_scaling_invariance(brj25):
    g = brj25.algebra
    f = g.field
    x = brj25.x_element("x1")
    r1 = ds_homology(g, x)
    x3 = {k: f.mul(f.from_int(3), v) for k, v in x.items()}
    r3 = ds_homology(g, x3)
    assert r1.rank_ad == r3.rank_ad
    assert r1.fingerprint == r3.fingerprint


def test_identify_descriptor():
    g = gl(1, 1, 0)  # solvable, not abelian
    el = {g.labels.index("E1,2"): g.field.one}
    res = ds_homology(g, el)
    out = identify(res, [])
    assert "dim c" in out or out.startswith("K^")


def test_ad_homological_gl26():
    g = family_algebra("gl", 2, 6, 2)
    f = g.field
    el = {}
    for i in (1, 3, 5):
        el = el_add(f, el, {g.labels.index(f"E{i},{i+1}"): f.one})
    assert g.parity_of(el) is None  # inhomogeneous
    assert is_homological(g, el) == "ad"
    res = ds_homology(g, el)
    assert res.rank_ad == 30
    assert res.homology.dim == 4
    el4 = el_add(f, el, {g.labels.index("E7,8"): f.one})
    res4 = ds_homology(g, el4)
    assert res4.rank_ad == 32 and res4.homology.dim == 0
