"""Cartan matrices, parity vectors, diagram combinatorics, root inner products.

A CartanSpec stores integer lifts of the matrix entries; an entry may be
marked parametric (an integer multiple of the transcendental a).  The
entries reduce mod p to the ground-field matrix used by the builder,
while the symmetrized form and all root inner products are evaluated on
the lifts over QQ (or QQ(a)) and never reduced mod p.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .fields import Field, field_for

# an entry is an integer lift, or ("a", k) meaning k * a with a transcendental
Entry = Union[int, Tuple[str, int]]


def entry_is_param(e: Entry) -> bool:
    return isinstance(e, tuple)


@dataclass
class CartanSpec:
    key: str
    p: int
    entries: List[List[Entry]]
    parities: List[int]
    expected_sdim: Optional[str] = None
    source_row: Optional[int] = None  # the listed matrix number in the source catalog
    notes: str = ""

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
        if len(self.parities) != n:
            raise ValueError("parity vector length mismatch")
        if n > 1 and not self._indecomposable():
            raise ValueError(f"Cartan matrix of {self.key!r} is decomposable")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def parametric(self) -> bool:
        return any(entry_is_param(e) for row in self.entries for e in row)

    def field(self) -> Field:
        return field_for(self.p, self.parametric)

    def entry_scalar(self, fld: Field, i: int, j: int):
        """The (i,j) ground-field entry (mod-p reduction of the lift)."""
        e = self.entries[i][j]
        if entry_is_param(e):
            return fld.param(e[1])
        return fld.from_int(e)

    def entry_lift(self, K0: Field, i: int, j: int):
        """The (i,j) lift in QQ or QQ(a) for the never-mod-p form."""
        e = self.entries[i][j]
        if entry_is_param(e):
            return K0.param(e[1])
        return K0.from_int(e)

    def lift_field(self) -> Field:
        return field_for(0, self.parametric)

    def reduced_is_zero(self, i: int, j: int) -> bool:
        e = self.entries[i][j]
        if entry_is_param(e):
            return (e[1] % self.p if self.p else e[1]) == 0
        return (e % self.p if self.p else e) == 0

    def _support_edges(self) -> List[Tuple[int, int]]:
        n = self.n
        return [(i, j) for i in range(n) for j in range(i + 1, n)
                if not (self.reduced_is_zero(i, j) and self.reduced_is_zero(j, i))]

    def _indecomposable(self) -> bool:
        n = self.n
        adj = {i: set() for i in range(n)}
        for i, j in self._support_edges():
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for k in adj[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        return len(seen) == n


@dataclass
class SymmetrizedForm:
    """The symmetrized form B = diag(d) A on the lifts.  Over QQ it also
    keeps B_int = den * B, integers, with den the lcm of B's denominators,
    so root_ip takes one integer dot product per pair of roots and divides
    by den once: the value is still exact over QQ, never reduced mod p.
    Over QQ(a), B_int is None and root_ip uses the Field's ops."""

    spec: CartanSpec
    d: List[object]  # symmetrizer over QQ(a) lifts
    B: List[List[object]]  # symmetric matrix over QQ or QQ(a)
    field: Field  # the lift field (characteristic 0)
    B_int: Optional[List[List[int]]] = None  # den * B over QQ
    den: int = 1


class UnsymmetrizableError(ValueError):
    pass


def symmetrize(spec: CartanSpec) -> SymmetrizedForm:
    """Solve d_i A_ij = d_j A_ji on the integer lifts (exact, characteristic 0)."""
    K0 = spec.lift_field()
    n = spec.n
    A = [[spec.entry_lift(K0, i, j) for j in range(n)] for i in range(n)]
    d: List[Optional[object]] = [None] * n
    d[0] = K0.one
    # propagate over the support graph of the lift matrix
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and (not K0.is_zero(A[i][j]) or not K0.is_zero(A[j][i])):
                adj[i].append(j)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if d[j] is not None:
                continue
            if K0.is_zero(A[j][i]) != K0.is_zero(A[i][j]):
                raise UnsymmetrizableError(
                    f"{spec.key}: entries ({i},{j})/({j},{i}) have mismatched supports")
            if K0.is_zero(A[j][i]):
                continue
            d[j] = K0.div(K0.mul(d[i], A[i][j]), A[j][i])
            stack.append(j)
    for i in range(n):
        if d[i] is None:
            d[i] = K0.one  # disconnected over QQ lifts (cannot happen when indecomposable)
    for i in range(n):
        for j in range(n):
            if K0.mul(d[i], A[i][j]) != K0.mul(d[j], A[j][i]):
                raise UnsymmetrizableError(
                    f"{spec.key}: no symmetrizer; the cycle through ({i},{j}) forces "
                    f"d_{i}*A[{i}][{j}] != d_{j}*A[{j}][{i}]")
    if not spec.parametric:
        # minimal positive integer scaling
        scale = math.lcm(*(Fraction(x).denominator for x in d))
        d = [Fraction(x) * scale for x in d]
        cont = math.gcd(*(x.numerator for x in d))
        if cont:
            d = [x / cont for x in d]
        if all(x < 0 for x in d):
            d = [-x for x in d]
        d = [K0.from_int(int(x)) if x.denominator == 1 else x for x in d]
    B = [[K0.mul(d[i], A[i][j]) for j in range(n)] for i in range(n)]
    if spec.parametric:
        return SymmetrizedForm(spec=spec, d=d, B=B, field=K0)
    den = math.lcm(*(x.denominator for row in B for x in row))
    B_int = [[int(x * den) for x in row] for row in B]
    return SymmetrizedForm(spec=spec, d=d, B=B, field=K0, B_int=B_int, den=den)


def root_ip(form: SymmetrizedForm, beta, gamma):
    """Bilinear extension of B on integer root coordinates; never reduced mod
    p.  Over QQ one integer dot product with form.B_int, divided by
    form.den: exact, a Fraction as on the Field path that QQ(a) takes."""
    cb, cg = tuple(beta), tuple(gamma)
    K0 = form.field
    n = form.spec.n
    if len(cb) != n or len(cg) != n:
        raise ValueError("root coordinate length mismatch")
    if form.B_int is not None:
        return Fraction(sum(x * sum(map(operator.mul, row, cg))
                            for x, row in zip(cb, form.B_int) if x), form.den)
    acc = K0.zero
    for i in range(n):
        if cb[i] == 0:
            continue
        ci = K0.from_int(cb[i])
        for j in range(n):
            if cg[j] == 0 or K0.is_zero(form.B[i][j]):
                continue
            acc = K0.add(acc, K0.mul(K0.mul(ci, K0.from_int(cg[j])), form.B[i][j]))
    return acc


@dataclass
class DiagramAnalysis:
    gray: List[int]
    g_max: int
    witnesses: List[Tuple[int, ...]]


def analyze_diagram(spec: CartanSpec) -> DiagramAnalysis:
    """Gray vertices (odd, zero diagonal in the ground field) and the maximum
    sets of pairwise non-connected gray vertices, by exhaustive search."""
    n = spec.n
    gray = [i for i in range(n) if spec.parities[i] == 1 and spec.reduced_is_zero(i, i)]
    connected = set()
    for i in range(n):
        for j in range(i + 1, n):
            if not (spec.reduced_is_zero(i, j) and spec.reduced_is_zero(j, i)):
                connected.add((i, j))

    def independent(sub: Tuple[int, ...]) -> bool:
        return all((a, b) not in connected for a, b in itertools.combinations(sub, 2))

    best = 0
    witnesses: List[Tuple[int, ...]] = []
    for size in range(len(gray), 0, -1):
        found = [sub for sub in itertools.combinations(gray, size) if independent(sub)]
        if found:
            best = size
            witnesses = found
            break
    return DiagramAnalysis(gray=gray, g_max=best, witnesses=witnesses)
