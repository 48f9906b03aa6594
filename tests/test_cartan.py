"""Cartan data: symmetrization, root inner products, diagram analysis, catalog."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie.cartan import (CartanSpec, UnsymmetrizableError, analyze_diagram,
                          root_ip, symmetrize)
from dslie.catalog import CatalogError, all_entries, catalog_get


BRJ = [[0, -1], [-2, 1]]


def test_symmetrize_brj():
    spec = CartanSpec(key="brj", p=5, entries=BRJ, parities=[1, 1])
    form = symmetrize(spec)
    assert form.d == [Fraction(2), Fraction(1)]
    assert form.B == [[Fraction(0), Fraction(-2)], [Fraction(-2), Fraction(1)]]


def test_symmetrize_symmetric_matrix():
    A = [[2, -1], [-1, 2]]
    spec = CartanSpec(key="a2", p=0, entries=A, parities=[0, 0])
    form = symmetrize(spec)
    assert form.d == [Fraction(1), Fraction(1)]
    assert form.B == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_symmetrize_same_matrix_p3():
    spec = CartanSpec(key="brj3", p=3, entries=BRJ, parities=[1, 1])
    form = symmetrize(spec)
    assert form.d == [Fraction(2), Fraction(1)]


def test_unsymmetrizable():
    A = [[2, -1, 0], [0, 2, -1], [-1, 0, 2]]  # 3-cycle with one-way arrows
    with pytest.raises((UnsymmetrizableError, ValueError)):
        spec = CartanSpec(key="bad", p=0, entries=A, parities=[0, 0, 0])
        symmetrize(spec)


def test_root_ip_paper_values():
    spec5 = CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1])
    form5 = symmetrize(spec5)
    v = root_ip(form5, (1, 0), (2, 5))
    assert v == Fraction(-10)
    assert int(v) % 5 == 0  # vanishes mod p but not over QQ
    spec3 = CartanSpec(key="brj23", p=3, entries=BRJ, parities=[1, 1])
    form3 = symmetrize(spec3)
    assert root_ip(form3, (1, 0), (1, 4)) == Fraction(-8)


def test_root_ip_symmetric_bilinear():
    spec = CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1])
    form = symmetrize(spec)
    b, g = (1, 2), (2, 3)
    assert root_ip(form, b, g) == root_ip(form, g, b)
    s = tuple(x + y for x, y in zip(b, g))
    assert root_ip(form, s, g) == form.field.add(root_ip(form, b, g),
                                                 root_ip(form, g, g))


def test_diagram_bgl4():
    spec = CartanSpec(key="bgl4", p=2,
                      entries=[[0, ("a", 1), 0, 0], [("a", 1), 0, 1, 0],
                               [0, 1, 0, 1], [0, 0, 1, 0]],
                      parities=[1, 1, 1, 1])
    da = analyze_diagram(spec)
    assert da.g_max == 2
    assert da.witnesses == [(0, 2), (0, 3), (1, 3)]


def test_diagram_sl2_no_gray():
    spec = CartanSpec(key="sl2", p=0, entries=[[2]], parities=[0])
    da = analyze_diagram(spec)
    assert da.gray == [] and da.g_max == 0


def test_diagram_brj():
    spec = CartanSpec(key="brj25", p=5, entries=BRJ, parities=[1, 1])
    da = analyze_diagram(spec)
    assert da.gray == [0] and da.g_max == 1


def test_diagram_witnesses_match_bruteforce():
    import itertools
    spec = CartanSpec(key="e66", p=2,
                      entries=[[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0],
                               [0, -1, 2, -1, 0, -1], [0, 0, -1, 2, -1, 0],
                               [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]],
                      parities=[1] * 6)
    da = analyze_diagram(spec)
    conn = {(i, j) for i in range(6) for j in range(i + 1, 6)
            if not (spec.reduced_is_zero(i, j) and spec.reduced_is_zero(j, i))}
    best = 0
    wit = []
    for size in range(6, 0, -1):
        found = [s for s in itertools.combinations(da.gray, size)
                 if all((a, b) not in conn for a, b in itertools.combinations(s, 2))]
        if found:
            best, wit = size, found
            break
    assert da.g_max == best == 3
    assert da.witnesses == wit


def test_catalog_get():
    ent = catalog_get("brj(2;5)", 5)
    assert ent.matrix == [[0, -1], [-2, 1]]
    assert ent.parities == [1, 1]
    assert ent.sdim == "10|12"
    ent2 = catalog_get("e(6,6)", 2)
    assert ent2.parities == [1, 1, 1, 1, 1, 1]
    with pytest.raises(CatalogError) as err:
        catalog_get("brj(2;5)", 3)
    assert "brj(2;3)" in str(err.value)  # lists the available keys


def test_indecomposable_required():
    with pytest.raises(ValueError):
        CartanSpec(key="dec", p=0, entries=[[2, 0], [0, 2]], parities=[0, 0])


QQ_LIFT_SPECS = [e.spec() for e in all_entries() if not e.spec().parametric]


def test_qq_lift_specs_cover_the_catalog():
    # all but bgl(3;alpha), bgl(4;alpha) and osp(4|2;a) at p = 5, 7, 11
    assert len(QQ_LIFT_SPECS) == len(all_entries()) - 5
    assert all(symmetrize(s).B_int is not None for s in QQ_LIFT_SPECS)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(QQ_LIFT_SPECS), data=st.data())
def test_integer_root_ip_matches_the_field_path(spec, data):
    """Over QQ root_ip is one integer dot product with B_int; the Field path
    (B_int None, as over QQ(a)) gives the same Fraction on random integer
    roots."""
    form = symmetrize(spec)
    field_form = dataclasses.replace(form, B_int=None)
    root = st.lists(st.integers(-6, 6), min_size=spec.n, max_size=spec.n)
    beta, gamma = data.draw(root, label="beta"), data.draw(root, label="gamma")
    got = root_ip(form, beta, gamma)
    assert got == root_ip(field_form, beta, gamma)
    assert isinstance(got, Fraction)


def test_parametric_form_keeps_the_field_path():
    spec = catalog_get("osp(4|2;a)", 5).spec()
    form = symmetrize(spec)
    assert form.B_int is None
    assert root_ip(form, (1, 1, 1), (1, 0, 1)) == form.field.add(
        root_ip(form, (1, 0, 0), (1, 0, 1)), root_ip(form, (0, 1, 1), (1, 0, 1)))
