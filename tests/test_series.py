"""The fingerprint's series fields against the pairwise reference.

Superalgebra.structure_series reads [g, g] once from the stored brackets
(and squares at p = 2) and counts dim C ∩ [g, g] per parity as
dim C + dim [g, g] - dim (C + [g, g]).  The reference below is the earlier
algorithm: the first derived and lower central steps bracket every pair of
basis vectors, the center is the nullspace of Field rows, and
center ∩ [g, g] is a basis found from the nullspace of the stacked center
and [g, g] rows.

center_rows, which hands the stored constants to linalg.nullspace_coo
(peeled over GF(p) and QQ within int64, whole over K(a) and beyond), is
compared with the dense reference repr for repr on every catalog build,
on the subquotient structures of test_subquotient.py, on the algebras of
test_forms.py over GF(p), QQ and K(a), and on its QQ algebras at the
int64 bound.
"""

import pytest

from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import abelian, gl, hei_odd, psl
from dslie.ds import ds_homology
from dslie.linalg import Matrix, mat_nullspace
from dslie.superalgebra import GradedSpan, Superalgebra, direct_sum
from helpers import center_rows_reference, el_addmul, transpose
from test_forms import EVERY_FIELD, INT64_EDGE
from test_subquotient import BUILDERS, _p2_heisenberg


def _kernel_trick_meet(g: Superalgebra, rows_a, rows_b):
    """Basis of span(rows_a) ∩ span(rows_b): each nullspace vector of the
    stacked rows gives the combination of rows_a that lies in span(rows_b)."""
    f = g.field
    if not rows_a or not rows_b:
        return []
    M = transpose(Matrix(f, list(rows_a) + list(rows_b), ncols=g.dim))
    out = []
    for v in mat_nullspace(M):
        comb = {}
        for idx, c in v.items():
            if idx < len(rows_a):
                comb = el_addmul(f, comb, c, rows_a[idx])
        if comb:
            out.append(comb)
    return out


def _sdim(g: Superalgebra, rows):
    sp = GradedSpan(g)
    for r in rows:
        sp.add_element(r)
    return sp.sdim()


def _full(g: Superalgebra) -> GradedSpan:
    full = GradedSpan(g)
    for i in range(g.dim):
        full.add_element({i: g.field.one})
    return full


def _pairwise_derived(g: Superalgebra) -> GradedSpan:
    return g.derived_subalgebra_span(_full(g))


def reference_series(g: Superalgebra) -> dict:
    f = g.field
    full = _full(g)
    derived, cur, sdims = [], full, []
    while True:
        nxt = g.derived_subalgebra_span(cur)
        sdims.append(nxt.sdim())
        derived.append(nxt)
        if nxt.dim() == cur.dim() or nxt.dim() == 0:
            break
        cur = nxt
    lc, nilpotent = full, False
    while True:
        nxt = GradedSpan(g)
        for u in lc.all_rows():
            for i in range(g.dim):
                nxt.add_element(g.bracket({i: f.one}, u))
        if f.p == 2:
            for r in lc.odd.rows:
                nxt.add_element(g.square(r))
        if nxt.dim() == 0:
            nilpotent = True
            break
        if nxt.dim() == lc.dim():
            break
        lc = nxt
    center = center_rows_reference(g)
    return {
        "derived_sdims": tuple(sdims),
        "center_sdim": _sdim(g, center),
        "center_in_derived_sdim": _sdim(g, _kernel_trick_meet(g, center, derived[0].all_rows())),
        "solvable": derived[-1].dim() == 0,
        "nilpotent": nilpotent,
        "abelian": sdims[0] == (0, 0),
    }


def _homology(cache_dir, key, p, x):
    b = build_catalog_algebra(key, p, cache_dir=cache_dir)
    return ds_homology(b.algebra, b.x_element(x)).homology


ALGEBRAS = {
    "gl(1|1)/p0": lambda c: gl(1, 1, 0),
    "hei(0|2)/p3": lambda c: hei_odd(3),
    "psl(3)/p3": lambda c: psl(3, 0, 3),
    "abelian(2|3)/p5": lambda c: abelian(2, 3, 5),
    "p2-heisenberg": lambda c: _p2_heisenberg(),
    "bgl(3;alpha)/p2": lambda c: build_catalog_algebra("bgl(3;alpha)", 2, cache_dir=c).algebra,
    "gl(2|2)+abelian(1|1)/p0": lambda c: direct_sum(gl(2, 2, 0), abelian(1, 1, 0)),
    "brj(2;3)/x1": lambda c: _homology(c, "brj(2;3)", 3, "x1"),
    "e(7,7)/x1+x3": lambda c: _homology(c, "e(7,7)", 2, "x1+x3"),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_series_match_pairwise_reference(cache_dir, name):
    g = ALGEBRAS[name](cache_dir)
    assert g.structure_series() == reference_series(g)
    assert g.first_derived_span().all_rows() == _pairwise_derived(g).all_rows()


def test_center_meets_derived_in_a_proper_part():
    # the identity of gl(2|2) has supertrace 0, so it lies in [g, g]; the
    # abelian summand is central and meets [g, g] in 0
    ss = ALGEBRAS["gl(2|2)+abelian(1|1)/p0"](None).structure_series()
    assert (ss["center_sdim"], ss["center_in_derived_sdim"]) == ((2, 1), (1, 0))


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: f"{e.key}@p{e.p}")
def test_center_matches_dense_reference_on_catalog_builds(ent, cache_dir):
    g = build_catalog_algebra(ent.key, ent.p, cache_dir=cache_dir).algebra
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_center_matches_dense_reference_on_subquotients(name):
    g = BUILDERS[name]()
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", sorted(EVERY_FIELD))
def test_center_matches_dense_reference_on_form_algebras(cache_dir, name):
    g = EVERY_FIELD[name](cache_dir)
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", list(INT64_EDGE))
def test_center_matches_dense_reference_at_the_int64_bound(name):
    g = INT64_EDGE[name][0]()
    assert repr(g.center_rows()) == repr(center_rows_reference(g))
