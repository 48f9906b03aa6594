"""Field arithmetic: canonical forms, axioms, the worked examples."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie.fields import FieldSpec, RatFunc, field_for
from helpers import poly


def test_gf3_add():
    f = field_for(3)
    assert f.add(2, 2) == 1


def test_gf2_alpha_char2():
    f = field_for(2, parametric=True)
    a = f.param()
    assert f.add(a, a) == f.zero


def test_gf5_invert():
    f = field_for(5)
    assert f.inv(2) == 3
    assert f.mul(2, f.inv(2)) == f.one


def test_invert_zero_raises():
    for f in (field_for(0), field_for(5), field_for(2, parametric=True)):
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)
    FieldSpec(0)
    FieldSpec(2)


def test_ratfunc_canonical():
    f = field_for(3, parametric=True)
    a = f.param()
    # (a^2 - 1)/(a - 1) reduces to a + 1 with monic denominator
    num = f.sub(f.mul(a, a), f.one)
    den = f.sub(a, f.one)
    q = f.div(num, den)
    assert q == f.add(a, f.one)
    assert q.den == (1,)
    # canonical form is idempotent: rebuilding from parts changes nothing
    q2 = f._make(q.num, q.den)
    assert q2 == q


def test_ratfunc_q_coeffs():
    f = field_for(0, parametric=True)
    a = f.param()
    half = f.div(f.one, f.from_int(2))
    x = f.mul(half, a)
    assert x.num == (Fraction(0), Fraction(1, 2))


def _axiom_fields():
    return [field_for(0), field_for(2), field_for(3), field_for(5),
            field_for(2, parametric=True), field_for(5, parametric=True)]


@settings(max_examples=40, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 5))
def test_field_axioms(x, y, z, fidx):
    f = _axiom_fields()[fidx]
    if getattr(f, "spec").parametric:
        a, b, c = poly(f, [x, 1]), poly(f, [y]), poly(f, [z, 0, 1])
    else:
        a, b, c = f.from_int(x), f.from_int(y), f.from_int(z)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if not f.is_zero(b):
        assert f.mul(b, f.inv(b)) == f.one
        assert f.div(f.mul(a, b), b) == a


def test_ratfunc_str_roundtrip_display():
    f = field_for(2, parametric=True)
    a = f.param()
    s = str(f.add(f.mul(a, a), f.one))
    assert s == "1+a^2"
