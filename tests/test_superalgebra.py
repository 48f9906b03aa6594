"""Core superalgebra model: brackets, squaring, axioms, series, subquotients."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie.catalog import build_catalog_algebra
from dslie.classical import abelian, gl, hei_odd, psl, sl
from dslie.fields import FunctionField, field_for
from dslie.linalg import Echelon
from dslie.superalgebra import Superalgebra, direct_sum
from helpers import bracket_reference, poly, quotient_by_ideal_reference, square_reference
from test_subquotient import BUILDERS as SUBQUOTIENT_BUILDERS


def test_gl11_supercommutator():
    g = gl(1, 1, 0)
    f = g.field
    e12 = g.labels.index("E1,2")
    e21 = g.labels.index("E2,1")
    w = g.bracket({e12: f.one}, {e21: f.one})
    want = {g.labels.index("E1,1"): f.one, g.labels.index("E2,2"): f.one}
    assert w == want


def test_even_self_bracket_vanishes():
    g = gl(2, 1, 0)
    f = g.field
    idx = g.labels.index("E1,3")  # even position pair? E1,3: parities (0,0) even
    u = {idx: f.from_int(3)}
    assert g.parities[idx] == 0
    assert g.bracket(u, u) == {}


def test_square_gl11_p2():
    g = gl(1, 1, 2)
    f = g.field
    e12 = g.labels.index("E1,2")
    e21 = g.labels.index("E2,1")
    assert g.square({e12: f.one}) == {}
    w = g.square({e12: f.one, e21: f.one})
    want = {g.labels.index("E1,1"): f.one, g.labels.index("E2,2"): f.one}
    assert w == want


def test_square_scaling_axiom():
    g = gl(2, 2, 2)
    f = g.field
    odd = [i for i in range(g.dim) if g.parities[i] == 1]
    u = {odd[0]: f.one, odd[2]: f.one}
    c = f.one
    assert g.square({}) == {}
    # s(c u) = c^2 s(u) over GF(2) means s(u) = s(u); exercise the formula shape
    assert g.square(u) == g.square(dict(u))


def test_square_rejects_even_component():
    g = gl(1, 1, 2)
    f = g.field
    with pytest.raises(ValueError):
        g.square({g.labels.index("E1,1"): f.one})


@pytest.mark.parametrize("p,brackets,squares,chevalley", [
    (3, {(0, 1): {-1: 1}}, None, None),
    (3, {(0, 1): {5: 1}}, None, None),
    (2, {}, {7: {0: 1}}, None),
    (2, {}, {-1: {0: 1}}, None),
    (2, {}, {1: {3: 1}}, None),
    (3, {}, None, {"e": [{0: 1}], "f": [{3: 1}]}),
])
def test_constructor_rejects_an_index_outside_the_basis(p, brackets, squares, chevalley):
    """An element key outside [0, dim) in a bracket value, a square (its
    key or its value) or a Chevalley element is a ValueError: check_axioms
    would pass such an algebra or fail with an IndexError, and the GF(p)
    contraction's flat keys would alias."""
    f = field_for(p)
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        Superalgebra(f, ["a", "b", "c"], [0, 1, 1], brackets, squares, chevalley=chevalley)


def test_constructor_drops_zero_coefficients():
    """A zero coefficient is no component: [a,b] = 0 a is stored as no
    bracket and breaks no parity rule.  The index check still sees it."""
    f = field_for(3)
    g = Superalgebra(f, ["a", "b", "c"], [0, 1, 1], {(0, 1): {0: 0}, (1, 2): {0: 1, 1: 0}})
    assert g.brackets == {(1, 2): {0: 1}}
    assert g.check_axioms() == []
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        Superalgebra(f, ["a", "b", "c"], [0, 1, 1], {(0, 1): {7: 0}})
    h = Superalgebra(field_for(2), ["a", "b"], [0, 1], {}, {1: {0: 0}})
    assert h.squares == {}


def test_check_axioms_pass_and_mutation():
    g = gl(1, 2, 3)
    assert g.check_axioms() == []
    # perturb one structure constant: some Jacobi triple must fail
    bad_brackets = {k: dict(v) for k, v in g.brackets.items()}
    key = next(iter(bad_brackets))
    tgt = next(iter(bad_brackets[key]))
    f = g.field
    bad_brackets[key][tgt] = f.add(bad_brackets[key][tgt], f.one)
    g2 = Superalgebra(f, g.labels, g.parities, bad_brackets, None, None)
    assert g2.check_axioms() != []


def test_abelian_passes():
    g = abelian(0, 2, 5)
    assert g.check_axioms() == []
    fp = g.fingerprint()
    assert fp.abelian and fp.sdim == (0, 2) and fp.center_sdim == (0, 2)


def test_structure_series_gl():
    g = gl(3, 0, 0)
    ss = g.structure_series()
    assert ss["center_sdim"] == (1, 0)  # scalars
    assert ss["derived_sdims"][0] == (8, 0)  # sl(3)
    assert not ss["solvable"]


def test_first_derived_mod_center_gl22():
    g = gl(2, 2, 0)
    h = g.first_derived_mod_center()
    assert h.sdim == (6, 8)  # psl(2|2)
    assert h.check_axioms() == []


def test_quotient_by_ideal_center():
    s = sl(2, 2, 3)
    center = s.center_rows()
    q = quotient_by_ideal_reference(s, center)
    assert q.sdim == (6, 8)
    assert q.check_axioms() == []
    with pytest.raises(ValueError):
        f = s.field
        # a random non-ideal line
        quotient_by_ideal_reference(s, [{s.labels.index("E1,2"): f.one}])


def test_quotient_by_zero_ideal():
    g = gl(1, 1, 5)
    f = g.field
    units = [{k: f.one} for k in range(g.dim)]
    q = g.subquotient(units, Echelon(f, g.dim), labels=g.labels)
    assert q.sdim == g.sdim
    assert q.brackets == g.brackets


def test_direct_sum():
    p3 = psl(3, 0, 3)
    d = direct_sum(p3, p3)
    assert d.sdim == (14, 0)
    assert d.check_axioms() == []
    a = abelian(1, 1, 3)
    z = direct_sum(a, abelian(0, 0, 3))
    assert z.sdim == (1, 1)


def test_invariant_forms():
    # abelian: every even supersymmetric form is invariant
    a = abelian(2, 2, 5)
    forms = a.invariant_forms()
    assert forms["dim"] == 3 + 1  # sym(2) on evens + alt(2) on odds
    # psl(2|2) carries an even invariant form
    q = psl(2, 2, 3)
    forms_q = q.invariant_forms()
    assert forms_q["dim"] >= 1


def test_fingerprint_gl11():
    g = gl(1, 1, 0)
    fp = g.fingerprint()
    assert fp.sdim == (2, 2)
    assert fp.derived_sdims[0] == (1, 2)
    assert fp.center_sdim == (1, 0)


def test_fingerprint_psl3():
    q = psl(3, 0, 3)
    fp = q.fingerprint()
    assert fp.sdim == (7, 0)
    assert fp.derived_sdims == ((7, 0),)  # perfect
    assert fp.center_sdim == (0, 0)


def test_hei_is_sl11():
    h = hei_odd(3)
    s = sl(1, 1, 3)
    assert h.fingerprint() == s.fingerprint()


# ---------------------------------------------------------------------------
# bracket and square in one accumulator against the term-by-term reference
# ---------------------------------------------------------------------------

CATALOG_STRUCTURES = {  # one catalog build per field of the differential test
    "e(6,6) p=2": ("e(6,6)", 2),
    "bgl(3;alpha) p=2": ("bgl(3;alpha)", 2),
    "brj(2;3) p=3": ("brj(2;3)", 3),
    "brj(2;5) p=5": ("brj(2;5)", 5),
    "osp(4|2;a) p=5": ("osp(4|2;a)", 5),
}
STRUCTURES = sorted(CATALOG_STRUCTURES) + sorted(SUBQUOTIENT_BUILDERS) + ["gl(2|2) p=2"]
P2_STRUCTURES = [s for s in STRUCTURES if "p=2" in s or s.startswith("p2 ")]


@functools.lru_cache(maxsize=None)
def _structure(name: str) -> Superalgebra:
    if name in CATALOG_STRUCTURES:
        return build_catalog_algebra(*CATALOG_STRUCTURES[name]).algebra
    if name == "gl(2|2) p=2":
        return gl(2, 2, 2)
    return SUBQUOTIENT_BUILDERS[name]()


def _field_names() -> set:
    out = set()
    for name in STRUCTURES:
        f = _structure(name).field
        out.add((f.p, f.spec.parametric))
    return out


def test_differential_structures_cover_every_field():
    assert {(2, False), (3, False), (5, False), (0, False), (2, True), (5, True)} <= _field_names()
    assert P2_STRUCTURES == [s for s in STRUCTURES if _structure(s).field.p == 2]


def _scalar(f, data):
    """A random scalar of f, zero included: small integers over GF(p), a
    quotient of small integers over QQ, a quotient of small polynomials over
    K(a)."""
    if isinstance(f, FunctionField):
        coeffs = st.lists(st.integers(-2, 2), max_size=3)
        num = poly(f, data.draw(coeffs, label="num"))
        den = poly(f, data.draw(coeffs, label="den"))
        return num if f.is_zero(den) else f.div(num, den)
    n = f.from_int(data.draw(st.integers(-3, 3), label="n"))
    return f.div(n, f.from_int(data.draw(st.integers(1, 3), label="d"))) if f.p == 0 else n


def _dense(g: Superalgebra, data, parity=None) -> dict:
    """A dense random element: a drawn coefficient at every basis index (of
    the given parity), zeros left out."""
    f = g.field
    out = {}
    for k in range(g.dim):
        if parity is None or g.parities[k] == parity:
            c = _scalar(f, data)
            if not f.is_zero(c):
                out[k] = c
    return out


def _check_no_zero(g: Superalgebra, w: dict) -> None:
    assert all(not g.field.is_zero(c) for c in w.values())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(STRUCTURES), data=st.data())
def test_bracket_matches_the_term_by_term_sum(name, data):
    g = _structure(name)
    u, v = _dense(g, data), _dense(g, data)
    w = g.bracket(u, v)
    assert w == bracket_reference(g, u, v)
    _check_no_zero(g, w)
    # every term of [u, u] meets its opposite for even u; at p = 2 every
    # term comes twice, for any u, so each sum is 2c = 0 mod 2
    even = {k: c for k, c in u.items() if g.parities[k] == 0}
    assert g.bracket(even, even) == bracket_reference(g, even, even) == {}
    if g.field.p == 2:
        assert g.bracket(u, u) == {}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(P2_STRUCTURES), data=st.data())
def test_square_matches_the_term_by_term_sum(name, data):
    g = _structure(name)
    u = _dense(g, data, parity=1)
    s = g.square(u)
    assert s == square_reference(g, u)
    _check_no_zero(g, s)


def test_bracket_drops_a_sum_that_cancels_mod_p():
    """[b_i + c2 b_i2, b_j] with c2 chosen so that the coefficient of some
    b_m cancels mod p, though its integer products are nonzero: b_m is not
    kept."""
    g = build_catalog_algebra("brj(2;5)", 5).algebra
    f = g.field
    found = 0
    for j in range(g.dim):
        cols = [(i, g.bracket({i: f.one}, {j: f.one})) for i in range(g.dim)]
        cols = [(i, w) for i, w in cols if w]
        for (i, w), (i2, w2) in itertools.combinations(cols, 2):
            for m in set(w) & set(w2):
                c2 = f.neg(f.div(w[m], w2[m]))
                u = {i: f.one, i2: c2}
                got = g.bracket(u, {j: f.one})
                assert m not in got
                assert got == bracket_reference(g, u, {j: f.one})
                found += 1
    assert found > 10
