"""Exact ground fields: QQ, GF(p), and rational functions GF(p)(a) / QQ(a).

Scalars are plain immutable Python values in canonical form so that
structural equality (==) is field equality:

  * QQ           -- fractions.Fraction
  * GF(p)        -- int in [0, p)
  * K(a)         -- RatFunc with reduced numerator/denominator and monic
                    denominator; polynomials are coefficient tuples over
                    the prime field (low degree first, no trailing zeros)

All operations go through a Field object.  Division by zero raises
ZeroDivisionError; structurally incompatible scalars raise TypeError.
Malformed user input raises UsageError, defined here as the lowest layer:
a characteristic that is not 0 or a prime here, an element expression
naming no basis vector in build.py and cli.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

MAX_PRIME = 2**31


class UsageError(ValueError):
    """Malformed user input; the CLI reports it in one line with exit code 1."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Characteristic (0 or prime) plus a flag for one adjoined transcendental."""

    p: int
    parametric: bool = False

    def __post_init__(self):
        if self.p != 0 and (self.p > MAX_PRIME or not _is_prime(self.p)):
            raise UsageError(f"characteristic must be 0 or a prime <= 2^31, got {self.p}")


# ---------------------------------------------------------------------------
# polynomials over the prime field, as coefficient tuples (low degree first)
# ---------------------------------------------------------------------------

Coeff = Union[int, Fraction]
Poly = Tuple[Coeff, ...]


def _ptrim(c: list) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        s = a + b
        out.append(s % p if p else s)
    return _ptrim(out)


def _pneg(f: Poly, p: int) -> Poly:
    return tuple((-a) % p if p else -a for a in f)


def _pmul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    if p:
        out = [c % p for c in out]
    return _ptrim(out)


def _pscale(f: Poly, c: Coeff, p: int) -> Poly:
    return _ptrim([(a * c) % p if p else a * c for a in f])


def _cinv(c: Coeff, p: int) -> Coeff:
    if p:
        return pow(int(c), p - 2, p)
    return Fraction(1) / c


def _pdivmod(f: Poly, g: Poly, p: int) -> Tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    ginv = _cinv(g[-1], p)
    while len(r) >= len(g):
        c = (r[-1] * ginv) % p if p else r[-1] * ginv
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[d + i] = (r[d + i] - c * b) % p if p else r[d + i] - c * b
        while r and r[-1] == 0:
            r.pop()
    return _ptrim(q), tuple(r)


def _pgcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    if f:
        f = _pscale(f, _cinv(f[-1], p), p)  # monic gcd
    return f


def _pstr(f: Poly) -> str:
    if not f:
        return "0"
    terms = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("a" if c == 1 else f"{c}*a")
        else:
            terms.append(f"a^{i}" if c == 1 else f"{c}*a^{i}")
    return "+".join(terms)


@dataclass(frozen=True)
class RatFunc:
    """Reduced fraction of polynomials; denominator monic and nonzero."""

    num: Poly
    den: Poly

    def __str__(self):
        if self.den == (1,):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class Field:
    """Common interface: canonical scalars plus arithmetic on them."""

    spec: FieldSpec
    zero: object
    one: object

    @property
    def p(self) -> int:
        return self.spec.p

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec})"


class RationalField(Field):
    def __init__(self):
        self.spec = FieldSpec(0, False)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)


class PrimeField(Field):
    def __init__(self, p: int):
        self.spec = FieldSpec(p, False)
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p


class FunctionField(Field):
    """Fraction field of K[a], K the prime field of characteristic p (QQ if p=0)."""

    def __init__(self, p: int):
        self.spec = FieldSpec(p, True)
        self.zero = RatFunc((), (1,))
        one = 1 % p if p else Fraction(1)
        self.one = RatFunc((one,), (1,))

    def _make(self, num: Poly, den: Poly) -> RatFunc:
        p = self.p
        if not den:
            raise ZeroDivisionError(f"zero denominator in GF({p})(a)")
        if not num:
            return self.zero
        g = _pgcd(num, den, p)
        if len(g) > 1 or g[0] != (1 % p if p else 1):
            num = _pdivmod(num, g, p)[0]
            den = _pdivmod(den, g, p)[0]
        lead = den[-1]
        if lead != (1 % p if p else 1):
            c = _cinv(lead, p)
            num = _pscale(num, c, p)
            den = _pscale(den, c, p)
        return RatFunc(num, den)

    def add(self, a: RatFunc, b: RatFunc):
        p = self.p
        num = _padd(_pmul(a.num, b.den, p), _pmul(b.num, a.den, p), p)
        return self._make(num, _pmul(a.den, b.den, p))

    def mul(self, a: RatFunc, b: RatFunc):
        p = self.p
        return self._make(_pmul(a.num, b.num, p), _pmul(a.den, b.den, p))

    def neg(self, a: RatFunc):
        return RatFunc(_pneg(a.num, self.p), a.den)

    def inv(self, a: RatFunc):
        if not a.num:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})(a)")
        return self._make(a.den, a.num)

    def from_int(self, n):
        c = n % self.p if self.p else Fraction(n)
        return RatFunc((c,) if c else (), (1,))

    def canonical(self, num: Poly, den: Poly) -> RatFunc:
        """RatFunc(num, den) when it is already in canonical form: every
        coefficient in [0, p) (p > 0), no trailing zero, a nonempty monic
        denominator and no common factor (den = 1 for 0).  A ValueError
        otherwise."""
        p = self.p
        one = 1 % p if p else 1
        if p and not all(0 <= c < p for c in num + den):
            raise ValueError(f"coefficient outside [0, {p}) in {num}/{den}")
        if (num and num[-1] == 0) or not den or den[-1] != one:
            raise ValueError(f"not a reduced monic fraction: {num}/{den}")
        if _pgcd(num, den, p) != (one,):
            raise ValueError(f"common factor in {num}/{den}")
        return RatFunc(num, den)

    def param(self, coeff: int = 1) -> RatFunc:
        """The transcendental generator a (times an integer coefficient)."""
        c = coeff % self.p if self.p else Fraction(coeff)
        if c == 0:
            return self.zero
        zero = 0 if self.p else Fraction(0)
        return RatFunc((zero, c), (1,))


_FIELD_CACHE: dict = {}


def field_for(p: int, parametric: bool = False) -> Field:
    """Field registry; fields are interned so identity comparisons work."""
    key = (p, parametric)
    if key not in _FIELD_CACHE:
        if parametric:
            _FIELD_CACHE[key] = FunctionField(p)
        elif p == 0:
            _FIELD_CACHE[key] = RationalField()
        else:
            _FIELD_CACHE[key] = PrimeField(p)
    return _FIELD_CACHE[key]
