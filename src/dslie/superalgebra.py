"""Finite-dimensional Lie superalgebras over an exact field.

A Superalgebra stores a basis (label, parity, optional integer weight),
sparse structure constants, and -- in characteristic 2 -- the squaring
map on the odd part.  Storage convention:

  * brackets[(i, j)] with i < j holds [b_i, b_j]; the transpose follows
    from super-anticommutativity [u,v] = -(-1)^{p(u)p(v)}[v,u].
  * for p != 2, brackets[(i, i)] may be stored for odd b_i (it is [b_i, b_i]).
  * for p == 2 the bracket is symmetric, [b_i, b_i] = 0, and squares[i]
    holds s(b_i) for odd i; squares of general odd elements expand as
    s(sum c_i x_i) = sum c_i^2 s(x_i) + sum_{i<j} c_i c_j [x_i, x_j].

Elements are sparse dicts {basis index: scalar} that never store a zero
(linalg.Element, the one vector format of the elimination engine).
Everything is immutable by convention: operations return new values.

Every subquotient goes through Superalgebra.subquotient, the only code that
computes brackets and squares on a new basis: subalgebras, the sl, psl and
osp realizations inside gl (classical.py), g^(1)/c and the Duflo-Serganova
homology g_x = Ker ad_x / Im ad_x in ds.py, each in one call.  Callers
choose the basis rows and, for a quotient, pass the echelon of the zero part;
a copy of it seeds one tracked echelon that the basis rows are added to (the
zero rows carry no combination, so they count as 0), and one reduction gives
a bracket's coordinates; a bracket that leaves the span is a ValueError.

The fingerprint's series start from [g, g], read once as the span of the
stored brackets (and squares at p = 2); no pair of basis vectors is
bracketed for it.  The center comes from one nullspace (over GF(p)
through linalg.nullspace_mod_p, fed the stored constants), and center ∩ [g, g]
by a dimension count: both are graded, so per parity
dim C ∩ D = dim C + dim D - dim (C + D).

check_axioms verifies super Jacobi as ad_{[b_i,b_j]} = ad_i ad_j -
s_ij ad_j ad_i for all pairs i <= j, every column at once, by contracting
the stored structure constants: only nonzero paths are summed.  Over GF(p)
the contraction is one pass of integer arrays (a join of the constants,
one sort and np.add.reduceat per chunk of paths), and the Python pair loop
runs only when some sum is nonzero, to name the failures exactly as
before; over QQ and K(a) the pair loop is the whole check.  The
constructor keeps every basis index in [0, dim).

invariant_forms solves the invariance equations of an even supersymmetric
form, assembled from the nonzero structure constants on every field.  Over
GF(p) they are integer (equation, variable, value) triples handed to
linalg.nullspace_mod_p, which deletes the variables that stand alone in
some equation (they are 0; most are) and eliminates only the core left.
Over QQ the same triples are taken modulo a 31-bit prime, and the
nullspace is lifted by rational reconstruction and certified exactly
(see _forms_modular).  Over K(a), and over QQ when no prime
certifies, the equations are Field rows, one per nonzero equation in
(i, j, k) order (see _form_equations), eliminated without that peeling
(invariant_forms says why).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fields import Field, PrimeField, RationalField, UsageError
from .linalg import Echelon, Element, Matrix, mat_nullspace, nullspace_mod_p, zero_of

FORMS_DIM_CUTOFF = 48  # invariant-form space solved only below this dimension
MAX_VIOLATIONS = 10  # check_axioms stops collecting after this many
JACOBI_CHUNK = 1 << 16  # path terms per step of the GF(p) Jacobi contraction
FORMS_PRIMES = (2147483629, 2147483587)  # 31-bit moduli of the QQ invariant forms


# ---------------------------------------------------------------------------
# sparse element helpers
# ---------------------------------------------------------------------------


def el_add(f: Field, u: Element, v: Element) -> Element:
    out = dict(u)
    for k, c in v.items():
        s = f.add(out.get(k, f.zero), c)
        if f.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def el_scale(f: Field, c, u: Element) -> Element:
    if f.is_zero(c):
        return {}
    return {k: f.mul(c, x) for k, x in u.items()}


def el_addmul(f: Field, u: Element, c, v: Element) -> Element:
    if f.is_zero(c):
        return dict(u)
    out = dict(u)
    for k, x in v.items():
        s = f.add(out.get(k, f.zero), f.mul(c, x))
        if f.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _nonzero_values(values: dict, zero) -> dict:
    """A copy of values (key -> Element) without the zero coefficients, and
    without the values that are then empty."""
    out = {}
    for k, v in values.items():
        if zero in v.values():  # rare: the common case is one dict() copy
            v = {m: x for m, x in v.items() if x != zero}
        if v:
            out[k] = dict(v)
    return out


def _note(bad: List[str], msg: str) -> None:
    """Add a violation to check_axioms' list unless it is full."""
    if len(bad) < MAX_VIOLATIONS:
        bad.append(msg)


def _join(off: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair (r, s) with off[keys[r]] <= s < off[keys[r] + 1], by
    increasing r: row r of a table joined with the rows s of a table sorted
    by key, whose rows of key x are off[x] .. off[x + 1] - 1."""
    start = off[keys]
    count = off[keys + 1] - start
    r = np.repeat(np.arange(keys.size), count)
    return r, np.arange(r.size) + np.repeat(start - count.cumsum() + count, count)


def _rational_lift(a: int, q: int) -> Optional[Fraction]:
    """The r/s with |r|, s <= sqrt(q/2) and r = s a mod q (rational
    reconstruction, Wang 1981), or None when there is none."""
    bound = math.isqrt(q // 2)
    r0, r1, s0, s1 = q, a, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


@dataclass(frozen=True)
class Fingerprint:
    """Computable isomorphism-class proxy; equality is the matching criterion."""

    sdim: Tuple[int, int]
    derived_sdims: Tuple[Tuple[int, int], ...]
    center_sdim: Tuple[int, int]
    center_in_derived_sdim: Tuple[int, int]
    forms_dim: Optional[int]
    solvable: bool
    nilpotent: bool
    abelian: bool

    def __str__(self):
        der = ", ".join(f"{a}|{b}" for a, b in self.derived_sdims)
        flags = "".join([
            "s" if self.solvable else "-",
            "n" if self.nilpotent else "-",
            "a" if self.abelian else "-",
        ])
        fd = "?" if self.forms_dim is None else str(self.forms_dim)
        return (f"sdim {self.sdim[0]}|{self.sdim[1]}; derived [{der}]; "
                f"center {self.center_sdim[0]}|{self.center_sdim[1]}; "
                f"center∩derived {self.center_in_derived_sdim[0]}|{self.center_in_derived_sdim[1]}; "
                f"forms {fd}; flags {flags}")


class Superalgebra:
    def __init__(self, field: Field, labels: List[str], parities: List[int],
                 brackets: Dict[Tuple[int, int], Element],
                 squares: Optional[Dict[int, Element]] = None,
                 weights: Optional[List[Optional[Tuple[int, ...]]]] = None,
                 chevalley: Optional[dict] = None):
        self.field = field
        self.labels = list(labels)
        self.parities = list(parities)
        zero = zero_of(field)
        self.brackets = _nonzero_values(brackets, zero)
        self.squares = _nonzero_values(squares or {}, zero) if field.p == 2 else None
        self.weights = list(weights) if weights is not None else None
        self.chevalley = chevalley
        self._mod_p: Dict[int, Tuple[np.ndarray, ...]] = {}  # _constants_mod_p by modulus
        n = len(labels)
        if len(parities) != n:
            raise ValueError("parity vector length mismatch")
        for (i, j) in self.brackets:
            if not (0 <= i <= j < n):
                raise ValueError(f"bad bracket key {(i, j)}")
            if i == j and (field.p == 2 or parities[i] == 0):
                raise ValueError(f"diagonal bracket stored for key {(i, i)}")
        # every basis index of a bracket value, a square and a Chevalley
        # element as given (a zero coefficient too), in one pass over the keys
        sq = (squares or {}) if field.p == 2 else {}
        used = set(sq).union(*brackets.values(), *sq.values(),
                             *(e for es in (chevalley or {}).values() for e in es))
        if used and (min(used) < 0 or max(used) >= n):
            raise ValueError(f"a basis index outside [0, {n})")
        for i in self.squares or {}:
            if parities[i] != 1:
                raise ValueError(f"square stored for even basis element {i}")

    # -- basic data ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def sdim(self) -> Tuple[int, int]:
        ev = sum(1 for p in self.parities if p == 0)
        return ev, len(self.parities) - ev

    def parity_of(self, u: Element) -> Optional[int]:
        """0/1 when u is parity-homogeneous, None otherwise (0 for u = 0).
        A zero coefficient of u is no support."""
        ps = {self.parities[k] for k, c in u.items() if not self.field.is_zero(c)}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    def element(self, expr: str) -> Element:
        """The sum of the basis elements named by x<k> and h<k> terms joined
        by "+" (a bare h is h1).  A term names the basis element with that
        label; in a matrix realization x<k> and h<k> name E<k>,<k+1> and
        E<k>,<k>."""
        f = self.field
        out: Element = {}
        for term in expr.replace(" ", "").split("+"):
            m = re.fullmatch(r"h(\d*)|x(\d+)", term)
            if m is None:
                raise UsageError(f"bad element expression {expr!r}: use h<k> and x<k> terms")
            k = int(m.group(1) or m.group(2) or 1)
            names = (f"{term[0]}{k}", f"E{k},{k}" if term[0] == "h" else f"E{k},{k + 1}")
            label = next((s for s in names if s in self.labels), None)
            if label is None:
                raise UsageError(f"{term} names no basis element (no label {' or '.join(names)})")
            out = el_add(f, out, {self.labels.index(label): f.one})
        return out

    # -- bracket and squaring ----------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Element:
        if i < j:
            return self.brackets.get((i, j), {})
        if i > j:
            v = self.brackets.get((j, i))
            if not v:
                return {}
            f = self.field
            if f.p == 2:
                return dict(v)
            sign = f.one if (self.parities[i] and self.parities[j]) else f.neg(f.one)
            return el_scale(f, sign, v)
        # i == j
        if self.field.p != 2 and self.parities[i] == 1:
            return self.brackets.get((i, i), {})
        return {}

    def ordered_brackets(self):
        """(a, b, [b_a, b_b]) for every nonzero bracket of two basis vectors,
        both orders of each stored pair, the sign applied."""
        for (i, j) in self.brackets:
            for a, b in {(i, j), (j, i)}:
                yield a, b, self.bracket_basis(a, b)

    def bracket(self, u: Element, v: Element) -> Element:
        f = self.field
        out: Element = {}
        for i, a in u.items():
            for j, b in v.items():
                w = self.bracket_basis(i, j)
                if w:
                    out = el_addmul(f, out, f.mul(a, b), w)
        return out

    def square(self, u: Element) -> Element:
        """s(u) for p = 2; u must have no even component."""
        f = self.field
        if f.p != 2:
            raise ValueError("squaring map is defined only in characteristic 2")
        for k in u:
            if self.parities[k] == 0:
                raise ValueError(f"square of element with even component {self.labels[k]}")
        items = sorted(u.items())
        out: Element = {}
        for idx, (i, c) in enumerate(items):
            sq = (self.squares or {}).get(i)
            if sq:
                out = el_addmul(f, out, f.mul(c, c), sq)
            for (j, d) in items[idx + 1:]:
                w = self.brackets.get((i, j), {})
                if w:
                    out = el_addmul(f, out, f.mul(c, d), w)
        return out

    def ad_matrix(self, u: Element) -> List[Element]:
        """Sparse rows of ad_u = [u, .] in the basis: row m is {j: coefficient
        of b_m in [u, b_j]}, zeros left out (the input of
        linalg.kernel_mod_image and linalg.sparse_rank).

        Entry (m, j) sums c * C[i,j,m] over the support {i: c} of u, read
        from the stored constants with the sign of [b_i, b_j] applied to c;
        no element is bracketed."""
        f = self.field
        n = self.dim
        p = f.p if isinstance(f, PrimeField) else 0
        rows: List[Element] = [{} for _ in range(n)]
        for i, c in u.items():
            minus = None  # -c, computed on first use
            for j in range(n):
                w = self.brackets.get((i, j) if i <= j else (j, i))
                if not w:
                    continue
                s = c
                if i > j and f.p != 2 and not (self.parities[i] and self.parities[j]):
                    if minus is None:
                        minus = -c % p if p else f.neg(c)
                    s = minus
                for m, e in w.items():
                    v = s * e % p if p else f.mul(s, e)
                    if j in rows[m]:
                        v = (rows[m][j] + v) % p if p else f.add(rows[m][j], v)
                    rows[m][j] = v
        zero = zero_of(f)
        return [{j: v for j, v in row.items() if v != zero} for row in rows]

    def _denominator_lcm(self) -> int:
        """Over QQ, the lcm of the denominators of the structure constants."""
        return math.lcm(1, *(c.denominator for v in self.brackets.values() for c in v.values()))

    # -- axioms --------------------------------------------------------------

    def check_axioms(self) -> List[str]:
        """Exhaustive verification; returns violation descriptions (empty =
        pass), at most MAX_VIOLATIONS of them.

        First the parity and weight of every stored constant, then the super
        Jacobi rule on every pair i <= j, the square rule (p = 2) and the
        cube rule (p = 3).  Over GF(p) one contraction of the stored
        constants decides those rules (_rules_hold_mod_p), and the pair loop
        (_rule_failures) runs only when some sum is nonzero, to name the
        failures; over QQ and K(a) the pair loop is the whole check."""
        f = self.field
        bad: List[str] = []
        # parity and weight additivity of stored constants
        for (i, j), v in self.brackets.items():
            pij = (self.parities[i] + self.parities[j]) % 2
            for k in v:
                if self.parities[k] != pij:
                    _note(bad, f"parity of [{self.labels[i]},{self.labels[j]}] component {self.labels[k]}")
            if self.weights is not None:
                wi, wj = self.weights[i], self.weights[j]
                if wi is not None and wj is not None:
                    wij = tuple(a + b for a, b in zip(wi, wj))
                    for k in v:
                        if self.weights[k] is not None and self.weights[k] != wij:
                            _note(bad, f"weight of [{self.labels[i]},{self.labels[j]}]")
        if f.p == 2 and self.squares:
            for i, v in self.squares.items():
                for k in v:
                    if self.parities[k] != 0:
                        _note(bad, f"parity of s({self.labels[i]})")
                if self.weights is not None and self.weights[i] is not None:
                    w2 = tuple(2 * a for a in self.weights[i])
                    for k in v:
                        if self.weights[k] is not None and self.weights[k] != w2:
                            _note(bad, f"weight of s({self.labels[i]})")
        if not (isinstance(f, PrimeField) and self._rules_hold_mod_p()):
            self._rule_failures(bad)
        return bad

    def _rules_hold_mod_p(self) -> bool:
        """Whether every sum of the super Jacobi rule, the square rule
        (p = 2) and the cube rule (p = 3) is 0 over GF(p), from one
        contraction of the stored constants C(a,b,m) (the arrays of
        _constants_mod_p).  It sums exactly the paths that the pair loop of
        _rule_failures sums.

        The sum of the pair i <= j at column k and component t is keyed
        ((i n + j) n + k) n + t.  Its terms are the products of two
        constants C(x,y,l) C(u,l,t), one join on l, read three ways:
          * sigma C(i,j,l) C(k,l,t) of [[b_i,b_j],b_k], as C(l,k,t) =
            sigma C(k,l,t) with sigma = -(-1)^{p(l)p(k)};
          * -C(j,k,l) C(i,l,t) of -[b_i,[b_j,b_k]];
          * s_ij C(i,k,l) C(j,l,t) of s_ij [b_j,[b_i,b_k]].
        At p = 2, where no sign matters, the last two terms of a pair (i, i)
        cancel; those paths go instead, for odd b_i, to the square rule
        [s(b_i),b_k] = [b_i,[b_i,b_k]], keyed as the pair (n, i), beside
        S(i,l) C(k,l,t) for s(b_i) = sum_l S(i,l) b_l, which joins as the
        constants C(n,i,l).  At p = 3 the paths C(i,i,l) C(i,l,t) also make
        the cube rule [b_i,[b_i,b_i]] = 0, keyed as the pair (n, 0) at
        column i.  The constructor keeps every index in [0, n), so keys do
        not collide.  Each key is summed mod p after one sort, by
        np.add.reduceat; a product of two constants is below p^2 <= 2^62
        (FieldSpec caps p at 2^31), and it is reduced before the sum.

        Every term takes its component t from the second constant, so the
        join runs over a run of components t at a time, with at most
        JACOBI_CHUNK paths unless one component alone has more: memory
        stays bounded on the largest builds."""
        p, n = self.field.p, self.dim
        if not self.brackets:
            return True  # every ad_x is 0
        A, B, M, C = self._constants_mod_p()
        odd = np.array(self.parities, dtype=bool)
        X, Y, L, V = A, B, M, C  # the first constants C(x,y,l)
        if self.squares:
            S = np.array([(n, i, l, c) for i, v in self.squares.items() for l, c in v.items()],
                         dtype=np.int64).T
            X, Y, L, V = (np.concatenate(z) for z in zip((A, B, M, C), S))
        by_l = B.argsort(kind="stable")  # the second constants C(u,l,t), by l
        chunks = [by_l]
        if L.size * B.size > JACOBI_CHUNK:  # there may be more paths than that
            paths = np.bincount(M, np.bincount(L, minlength=n)[B], n)  # by component t
            bounds, size = [0], 0
            for t, count in enumerate(paths.tolist()):
                if size and size + count > JACOBI_CHUNK:
                    bounds.append(t)
                    size = 0
                size += count
            bounds.append(n)
            t = M[by_l]
            chunks = [by_l[(t >= lo) & (t < hi)] for lo, hi in zip(bounds, bounds[1:])]
        for R in chunks:
            r, s = _join(np.bincount(B[R] + 1, minlength=n + 1).cumsum(), L)
            s = R[s]
            x, y, u, t = X[r], Y[r], A[s], M[s]
            v = V[r] * C[s] % p
            # the three readings of each path as keys (i, j, k, t), kept on i <= j
            if p == 2:
                diag = x == u
                i = np.concatenate([x, u, np.where(diag, n, x)])
                keep = np.concatenate([(x < y) | (x == n), (u < x) & (x < n), (x < u) | diag & odd[u]])
                vals = np.concatenate([v, v, v])
            else:
                i = np.concatenate([x, u, x])
                keep = np.concatenate([x <= y, u <= x, x <= u])
                vals = np.concatenate([np.where(odd[B[s]] & odd[u], v, -v), -v,
                                       np.where(odd[x] & odd[u], -v, v)])
            j, k = np.concatenate([y, x, u]), np.concatenate([u, y, y])
            key = (((i * n + j) * n + k) * n + np.concatenate([t, t, t]))[keep]
            vals = vals[keep]
            if p == 3:
                cube = ((x == u) & (y == x)).nonzero()[0]
                key = np.concatenate([key, (n ** 3 + x[cube]) * n + t[cube]])
                vals = np.concatenate([vals, v[cube]])
            order = key.argsort()
            key = key[order]
            first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if (np.add.reduceat(vals[order], first.nonzero()[0]) % p).any():
                return False
        return True

    def _rule_failures(self, bad: List[str]) -> None:
        """check_axioms' rules pair by pair, noted in bad: super Jacobi as
        ad_{[b_i,b_j]} = ad_i ad_j - s_ij ad_j ad_i for all pairs i <= j, on
        every column at once; at p = 2 the square rule ad_{s(b_i)} = ad_i^2
        for odd b_i; at p = 3 the cube rule [x,[x,x]] = 0 for odd x."""
        f = self.field
        n = self.dim
        # The sums run over the nonzero paths of the stored constants:
        # ad[i][k] = [b_i, b_k].  Over GF(p) and QQ they run in Python
        # integers, reduced mod p once; over QQ every constant is scaled by
        # the lcm of the denominators, which keeps the identity since each
        # of its terms is a product of two.
        qq = isinstance(f, RationalField)
        native = qq or isinstance(f, PrimeField)
        den = self._denominator_lcm() if qq else 1
        ad: List[Dict[int, Element]] = [{} for _ in range(n)]
        for a, b, w in self.ordered_brackets():
            ad[a][b] = {m: int(c * den) for m, c in w.items()} if qq else w
        add, mul = (operator.add, operator.mul) if native else (f.add, f.mul)
        zero, one, minus = (0, 1, -1) if native else (f.zero, f.one, f.neg(f.one))
        p = f.p if native else 0

        def first_failure(lhs: Element, terms) -> Optional[int]:
            """Least column k where ad_lhs - sum c ad_x ad_y is nonzero, over
            the terms (x, y, c)."""
            acc: Dict[Tuple[int, int], object] = {}
            for m, c in lhs.items():
                for k, w in ad[m].items():
                    for t, e in w.items():
                        acc[k, t] = add(acc.get((k, t), zero), mul(c, e))
            for x, y, c in terms:
                for k, w in ad[y].items():
                    for l, d in w.items():
                        for t, e in ad[x].get(l, {}).items():
                            acc[k, t] = add(acc.get((k, t), zero), mul(c, mul(d, e)))
            return min((k for (k, _), v in acc.items() if (v % p if p else v != zero)),
                       default=None)

        for i in range(n):
            for j in range(i, n):
                if not ad[i] or not ad[j]:
                    continue  # ad_i or ad_j is 0, and so is [b_i, b_j]
                s_ij = minus if (self.parities[i] and self.parities[j] and f.p != 2) else one
                k = first_failure(ad[i].get(j, {}), [(i, j, minus), (j, i, s_ij)])
                if k is not None:
                    _note(bad, f"Jacobi failure at ({self.labels[i]},{self.labels[j]},{self.labels[k]})")
                if len(bad) >= MAX_VIOLATIONS:
                    return

        if f.p == 3:
            for i in range(n):
                if self.parities[i] == 1:
                    xx = self.bracket_basis(i, i)
                    if self.bracket({i: f.one}, xx):
                        _note(bad, f"[x,[x,x]] != 0 for odd {self.labels[i]}")

        if f.p == 2:
            for i in range(n):
                if self.parities[i] != 1:
                    continue
                k = first_failure((self.squares or {}).get(i, {}), [(i, i, minus)])
                if k is not None:
                    _note(bad, f"[s(x),z] != [x,[x,z]] for x={self.labels[i]}, z={self.labels[k]}")

    # -- subspaces ------------------------------------------------------------

    def derived_subalgebra_span(self, span: "GradedSpan") -> "GradedSpan":
        """Span of brackets (and squares at p = 2) of a graded subspace."""
        f = self.field
        out = GradedSpan(self)
        rows = span.all_rows()
        for a in range(len(rows)):
            for b in range(a, len(rows)):
                out.add_element(self.bracket(rows[a], rows[b]))
        if f.p == 2:
            for r in span.odd.rows:
                out.add_element(self.square(r))
        return out

    def center_rows(self) -> List[Element]:
        """Kernel of the joint adjoint action, as elements: one equation
        sum_i x_i [b_i, b_k]_m = 0 per nonzero (k, m), read off the stored
        brackets.  Over GF(p) the constants go to linalg.nullspace_mod_p as
        they are stored, one (equation, variable, value) triple each."""
        f = self.field
        n = self.dim
        if isinstance(f, PrimeField):
            A, B, M, C = self._constants_mod_p()
            return nullspace_mod_p(f.p, n, B * n + M, A, C)
        rows: Dict[Tuple[int, int], Element] = {}
        for a, b, w in self.ordered_brackets():
            for m, c in w.items():
                rows.setdefault((b, m), {})[a] = c
        return mat_nullspace(Matrix(f, [rows[km] for km in sorted(rows)], ncols=n))

    # -- series, flags, fingerprint -------------------------------------------

    def first_derived_span(self) -> "GradedSpan":
        """[g, g] as the span of the stored brackets and, at p = 2, squares:
        the bracket of two basis vectors is a stored one up to sign."""
        out = GradedSpan(self)
        for v in list(self.brackets.values()) + list((self.squares or {}).values()):
            out.add_element(v)
        return out

    def structure_series(self) -> dict:
        """The fingerprint's series fields (see the module docstring).  The
        terms of each series are nested, so a step that does not stop lowers
        the dimension and the loops end within dim steps."""
        f = self.field
        d1 = self.first_derived_span()
        sdims = [d1.sdim()]
        cur, prev = d1, self.dim
        while cur.dim() not in (0, prev):
            prev = cur.dim()
            cur = self.derived_subalgebra_span(cur)
            sdims.append(cur.sdim())
        solvable = cur.dim() == 0
        # lower central series g > [g, g] > [g, [g, g]] > ... for nilpotency;
        # g^(k) lies in its k-th term, so only a solvable g can be nilpotent
        lc, prev = d1, self.dim
        while solvable and lc.dim() not in (0, prev):
            prev = lc.dim()
            nxt = GradedSpan(self)
            for u in lc.all_rows():
                for i in range(self.dim):
                    nxt.add_element(self.bracket({i: f.one}, u))
            if f.p == 2:
                for r in lc.odd.rows:
                    nxt.add_element(self.square(r))
            lc = nxt
        nilpotent = lc.dim() == 0
        center = GradedSpan(self)
        for r in self.center_rows():
            center.add_element(r)
            d1.add_element(r)  # d1 becomes C + [g, g]; the series are done with it
        return {
            "derived_sdims": tuple(sdims),
            "center_sdim": center.sdim(),
            "center_in_derived_sdim": tuple(c + d - s for c, d, s
                                            in zip(center.sdim(), sdims[0], d1.sdim())),
            "solvable": solvable,
            "nilpotent": nilpotent,
            "abelian": sdims[0] == (0, 0),
        }

    def invariant_forms(self) -> dict:
        """Even supersymmetric invariant bilinear forms B([x,y],z) = B(x,[y,z]):
        {"dim": dimension of their space, "forms": a basis as n x n matrices}."""
        f = self.field
        pairs = self._form_pairs()
        if isinstance(f, PrimeField):
            sols = nullspace_mod_p(f.p, len(pairs), *self._form_equations_mod_p(pairs))
            return self._forms_of(pairs, sols)
        # QQ: solved mod a 31-bit prime and certified exactly (_forms_modular).
        # K(a) keeps every nonzero equation, repeats included, with no
        # peeling of forced-zero variables and no deduplication, for the
        # reason its row updates visit every column (linalg's module
        # docstring): made faster, the bgl(4;a) defect op would set the
        # defect-sweep latency tail.
        forms = self._forms_modular(pairs) if isinstance(f, RationalField) else None
        if forms is None:
            forms = self._forms_of(pairs, mat_nullspace(self._form_equations(pairs)))
        return forms

    def _forms_of(self, pairs: List[Tuple[int, int]], sols: List[Element]) -> dict:
        """invariant_forms' answer from nullspace vectors over the pairs."""
        f = self.field
        n = self.dim
        var = self._form_variables(pairs)

        def to_matrix(sol):
            B = [[f.zero] * n for _ in range(n)]
            for (a, b), (t, neg) in var.items():
                if t in sol:
                    B[a][b] = f.neg(sol[t]) if neg else sol[t]
            return B

        return {"dim": len(sols), "forms": [to_matrix(s) for s in sols]}

    def _forms_modular(self, pairs: List[Tuple[int, int]]) -> Optional[dict]:
        """The QQ forms from the nullspace mod q, q in FORMS_PRIMES, lifted by
        rational reconstruction and checked exactly; None when no prime
        gives a lift that passes.

        The answer equals the exact nullspace: the mod-q nullity is at least
        the QQ nullity, and each lift keeps the mod-q RREF shape (1 at its
        own free column, its last nonzero entry; 0 at the other free
        columns).  Invariant lifts of that shape, as many as the mod-q
        nullity, are the unique such basis of the QQ nullspace."""
        den = self._denominator_lcm()
        for q in FORMS_PRIMES:
            if den % q == 0:
                continue
            sols = nullspace_mod_p(q, len(pairs), *self._form_equations_mod_p(pairs, q))
            lifts = [{t: _rational_lift(a, q) for t, a in v.items()} for v in sols]
            if any(None in v.values() for v in lifts):
                continue
            forms = self._forms_of(pairs, lifts)
            if all(self._is_invariant(B) for B in forms["forms"]):
                return forms
        return None

    def _is_invariant(self, B: List[list]) -> bool:
        """B([b_i,b_j], b_k) = B(b_i, [b_j,b_k]) for all i, j, k, summed over
        the nonzero structure constants and the nonzero entries of B."""
        f = self.field
        n = self.dim
        rows = [{k: c for k, c in enumerate(r) if not f.is_zero(c)} for r in B]
        cols = [{i: B[i][m] for i in range(n) if not f.is_zero(B[i][m])} for m in range(n)]
        acc: Dict[Tuple[int, int, int], object] = {}
        for a, b, w in self.ordered_brackets():
            for m, c in w.items():
                for k, e in rows[m].items():  # B([b_a,b_b], b_k) in equation (a, b, k)
                    acc[a, b, k] = f.add(acc.get((a, b, k), f.zero), f.mul(c, e))
                for l, e in cols[m].items():  # B(b_l, [b_a,b_b]) in equation (l, a, b)
                    acc[l, a, b] = f.sub(acc.get((l, a, b), f.zero), f.mul(c, e))
        return all(f.is_zero(v) for v in acc.values())

    def _form_pairs(self) -> List[Tuple[int, int]]:
        """The variables of an even supersymmetric form: the entries B_ij,
        i <= j, that may be nonzero, in row-major order."""
        odd_zero = self.field.p != 2  # B(x,x) = -B(x,x) forces 0 on odd x
        return [(i, j) for i in range(self.dim) for j in range(i, self.dim)
                if self.parities[i] == self.parities[j]
                and not (i == j and self.parities[i] == 1 and odd_zero)]

    def _form_variables(self, pairs: List[Tuple[int, int]]) -> Dict[Tuple[int, int], tuple]:
        """(a, b) -> (t, neg) for every entry that may be nonzero: B_ab is
        x_t, or -x_t when neg, where x_t is the variable of pairs[t].
        Supersymmetry gives B_ba = -B_ab for odd a != b (p != 2)."""
        var = {}
        for t, (i, j) in enumerate(pairs):
            var[i, j] = (t, False)
            var[j, i] = (t, self.field.p != 2 and i != j and self.parities[i] == 1)
        return var

    def _form_equations(self, pairs: List[Tuple[int, int]]) -> Matrix:
        """One equation B([b_i,b_j], b_k) - B(b_i, [b_j,b_k]) = 0 per triple
        (i, j, k), and at p = 2 B(s(b_i), b_k) - B(b_i, [b_i,[b_i,b_k]]) = 0
        per odd b_i and every k, as element rows: zero equations dropped,
        the rest sorted by (i, j, k) with the square equations (i, k) last.

        Each nonzero structure constant C[a,b,m] adds C at B(b_m, b_k) to
        equation (a, b, k) and -C at B(b_l, b_m) to equation (l, a, b), for
        every k and l; entries of one (equation, variable) are summed."""
        f = self.field
        n = self.dim
        var = self._form_variables(pairs)
        right = [[(k,) + var[m, k] for k in range(n) if (m, k) in var] for m in range(n)]
        left = [[(l,) + var[l, m] for l in range(n) if (l, m) in var] for m in range(n)]
        eqs: Dict[int, Dict[int, object]] = {}  # (i, j, k) is i n^2 + j n + k

        def put(e: int, t: int, c):
            row = eqs.setdefault(e, {})
            row[t] = f.add(row[t], c) if t in row else c

        for a, b, w in self.ordered_brackets():
            for m, c in w.items():
                cs = (c, f.neg(c))  # cs[s] is (-1)^s c
                for k, t, neg in right[m]:
                    put((a * n + b) * n + k, t, cs[neg])
                for l, t, neg in left[m]:
                    put((l * n + a) * n + b, t, cs[not neg])
        if f.p == 2:  # the square equation (i, k) is n^3 + i n + k; no sign
            for i in (i for i in range(n) if self.parities[i]):
                for m, c in self.squares.get(i, {}).items():
                    for k, t, _ in right[m]:
                        put(n ** 3 + i * n + k, t, c)
                for k in range(n):  # b_m in [b_i, [b_i, b_k]]
                    for m, c in self.bracket({i: f.one}, self.bracket_basis(i, k)).items():
                        if (i, m) in var:
                            put(n ** 3 + i * n + k, var[i, m][0], f.neg(c))
        rows = [{t: c for t, c in eqs[e].items() if not f.is_zero(c)} for e in sorted(eqs)]
        return Matrix(f, [r for r in rows if r], ncols=len(pairs))

    def _constants_mod_p(self, q: Optional[int] = None) -> Tuple[np.ndarray, ...]:
        """The entries of ordered_brackets as four int64 arrays (a, b, m, c):
        c = C[a,b,m] mod q (default: the characteristic p of GF(p); over QQ
        a prime dividing no denominator), read from the stored pairs a <= b
        in one pass; the other order gets its sign here,
        [b_b, b_a] = -(-1)^{p(a)p(b)} [b_a, b_b] (no sign at p = 2).  They
        are read once per q and kept, read-only: the algebra is immutable by
        convention, and check_axioms, the center and the forms all read them."""
        f = self.field
        q = q or f.p
        if q in self._mod_p:
            return self._mod_p[q]
        if f.p:
            flat = [x for (i, j), w in self.brackets.items() for m, c in w.items()
                    for x in (i, j, m, c)]
        else:
            flat = [x for (i, j), w in self.brackets.items() for m, c in w.items()
                    for x in (i, j, m, c.numerator * pow(c.denominator, -1, q) % q)]
        I, J, M, C = np.array(flat, dtype=np.int64).reshape(-1, 4).T
        two = I != J
        flip = C[two]
        if f.p != 2:
            odd = np.array(self.parities, dtype=bool)
            flip = np.where(odd[I[two]] & odd[J[two]], flip, -flip) % q
        out = (np.concatenate([I, J[two]]), np.concatenate([J, I[two]]),
               np.concatenate([M, M[two]]), np.concatenate([C, flip]))
        for x in out:
            x.flags.writeable = False
        self._mod_p[q] = out
        return out

    def _form_equations_mod_p(self, pairs: List[Tuple[int, int]], q: Optional[int] = None
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The equations of _form_equations modulo q (default: the
        characteristic p of GF(p); over QQ a prime dividing no denominator),
        as integer COO triples (equation, variable, value) for
        linalg.nullspace_mod_p, which sums them mod q.

        Each nonzero structure constant C[i,j,m] adds n entries: C[i,j,m] at
        B(b_m, b_k) to equation (i, j, k) and -C[i,j,m] at B(b_l, b_m) to
        equation (l, i, j), for every k and l; entries at an entry of B
        that is 0 by parity are left out."""
        f = self.field
        n, nv = self.dim, len(pairs)
        if not self.brackets and not self.squares:  # abelian: no equation
            return tuple(np.zeros((3, 0), dtype=np.int64))
        var = np.full((n, n), -1, dtype=np.int64)  # B_ab = sgn[a, b] * x[var[a, b]]
        lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        var[lo, hi] = var[hi, lo] = np.arange(nv)
        sgn = np.ones((n, n), dtype=np.int64)
        if f.p != 2:  # B_ji = -B_ij for odd i < j
            odd = np.array(self.parities)[lo] == 1
            sgn[hi[odd], lo[odd]] = -1
        I, J, M, C = self._constants_mod_p(q)
        ks = np.arange(n)
        # equation (i, j, k) is row i n^2 + j n + k; at p = 2 the square
        # equation (i, k) is row n^3 + i n + k
        rows = [((I * n + J) * n)[:, None] + ks, ks * n * n + (I * n + J)[:, None]]
        cols = [var[M], var[:, M].T]
        vals = [C[:, None] * sgn[M], -C[:, None] * sgn[:, M].T]
        if f.p == 2:
            sq = np.array([(i, m, c) for i, v in self.squares.items() for m, c in v.items()],
                          dtype=np.int64).reshape(-1, 3)
            rows.append((n ** 3 + sq[:, 0] * n)[:, None] + ks)
            cols.append(var[sq[:, 1]])
            vals.append(np.repeat(sq[:, 2:], n, axis=1))
            for i in (i for i in range(n) if self.parities[i]):
                ad = np.zeros((n, n), dtype=np.int64)  # ad[k, m]: b_m in [b_i, b_k]
                own = I == i
                ad[J[own], M[own]] = C[own]
                adad = ad @ ad  # adad[k, m]: b_m in [b_i, [b_i, b_k]]
                k, m = np.nonzero(adad)
                rows.append(n ** 3 + i * n + k)
                cols.append(var[i, m])
                vals.append(-adad[k, m])
        r, v, c = (np.concatenate([x.ravel() for x in xs]) for xs in (rows, cols, vals))
        keep = v >= 0
        return r[keep], v[keep], c[keep]

    def fingerprint(self) -> Fingerprint:
        ss = self.structure_series()
        forms_dim = None
        if self.dim <= FORMS_DIM_CUTOFF:
            forms_dim = self.invariant_forms()["dim"]
        return Fingerprint(
            sdim=self.sdim,
            derived_sdims=ss["derived_sdims"],
            center_sdim=ss["center_sdim"],
            center_in_derived_sdim=ss["center_in_derived_sdim"],
            forms_dim=forms_dim,
            solvable=ss["solvable"],
            nilpotent=ss["nilpotent"],
            abelian=ss["abelian"],
        )

    # -- subquotients ---------------------------------------------------------

    def subquotient(self, basis_rows: List[Element], zero: Optional[Echelon] = None, *,
                    labels: List[str], weights: bool = True,
                    chevalley: bool = False) -> "Superalgebra":
        """Induced structure on span(basis_rows) modulo the span of ``zero``,
        an untracked Echelon (its rows carry no combination).

        The rows must be parity-homogeneous and independent modulo ``zero``,
        and the brackets and squares of the rows must stay in
        span(basis_rows) + span(zero); otherwise ValueError.  Basis element t
        gets labels[t] and, when ``weights`` is set and this algebra carries
        weights, the weight common to the support of row t (None if mixed).
        With ``chevalley`` the Chevalley generators are carried over when all
        of them lie in the subquotient.
        """
        f = self.field
        span = zero.copy() if zero is not None else Echelon(f, self.dim)
        span.track = True
        for t, r in enumerate(basis_rows):
            if span.add(r, vid=t) is None:
                raise ValueError("subquotient basis rows are linearly dependent")

        def coords(u: Element) -> Element:
            res, combo = span.reduce(u)
            if res:
                raise ValueError("bracket leaves the subquotient span")
            return {t: combo[t] for t in sorted(combo)}

        parities = [self.parity_of(u) for u in basis_rows]
        if None in parities:
            raise ValueError("subquotient basis is not parity-graded")
        wts = None
        if weights and self.weights is not None:
            wts = []
            for u in basis_rows:
                ws = {self.weights[k] for k in u}
                wts.append(ws.pop() if len(ws) == 1 else None)
        m = len(basis_rows)
        brackets: Dict[Tuple[int, int], Element] = {}
        squares: Dict[int, Element] = {}
        for a in range(m):
            lo = a if (f.p != 2 and parities[a] == 1) else a + 1
            for b in range(lo, m):
                w = self.bracket(basis_rows[a], basis_rows[b])
                if w:
                    brackets[(a, b)] = coords(w)
            if f.p == 2 and parities[a] == 1:
                w = self.square(basis_rows[a])
                if w:
                    squares[a] = coords(w)
        chev = None
        if chevalley and self.chevalley is not None:
            try:
                chev = {key: [coords(e) for e in es] for key, es in self.chevalley.items()}
            except ValueError:
                chev = None
        return Superalgebra(f, labels, parities, brackets, squares or None, wts,
                            chevalley=chev)

    def subalgebra_from_rows(self, rows: List[Element]) -> "Superalgebra":
        """Induced structure on a bracket/square-closed graded subspace."""
        sp = GradedSpan(self)
        for r in rows:
            sp.add_element(r)
        # label each row by its pivot coordinate (rows are in RREF)
        return self.subquotient(sp.all_rows(),
                                labels=[self.labels[p] for p in sp.all_pivots()],
                                chevalley=True)

    def first_derived_mod_center(self) -> "Superalgebra":
        """The subquotient g^(1) / (center of g^(1)).

        The complement of the center is spanned by the first basis vectors
        of g^(1), in index order, that are independent of it and of each
        other.  The center needs no ideal check: its rows solve [z, b_k] = 0
        for every k, and at p = 2 s(z) is central too, as
        [s(z), w] = [z, [z, w]] = 0.
        """
        sub = self.subalgebra_from_rows(self.first_derived_span().all_rows())
        f = sub.field
        center = Echelon(f, sub.dim).extend(sub.center_rows())
        if not center:
            return sub
        comp = center.copy().complete_with_units()
        return sub.subquotient([{m: f.one} for m in comp], center,
                               labels=[sub.labels[m] for m in comp], chevalley=True)


class GradedSpan:
    """Parity-graded subspace, maintained as two echelons (even, odd)."""

    def __init__(self, g: Superalgebra):
        self.g = g
        self.even = Echelon(g.field, g.dim)
        self.odd = Echelon(g.field, g.dim)

    def add_element(self, u: Element):
        ue = {k: c for k, c in u.items() if self.g.parities[k] == 0}
        uo = {k: c for k, c in u.items() if self.g.parities[k] == 1}
        if ue:
            self.even.add(ue)
        if uo:
            self.odd.add(uo)

    def dim(self) -> int:
        return len(self.even) + len(self.odd)

    def sdim(self) -> Tuple[int, int]:
        return len(self.even), len(self.odd)

    def all_rows(self) -> List[Element]:
        return self.even.rows + self.odd.rows

    def all_pivots(self) -> List[int]:
        return list(self.even.pivots) + list(self.odd.pivots)


def direct_sum(a: Superalgebra, b: Superalgebra) -> Superalgebra:
    """Block direct sum; both summands over one field."""
    if a.field != b.field:
        raise ValueError("direct sum requires a common field")
    f = a.field
    off = a.dim
    labels = [f"A.{x}" for x in a.labels] + [f"B.{x}" for x in b.labels]
    parities = a.parities + b.parities
    brackets = {k: dict(v) for k, v in a.brackets.items()}
    for (i, j), v in b.brackets.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in v.items()}
    squares = None
    if f.p == 2:
        squares = {i: dict(v) for i, v in (a.squares or {}).items()}
        for i, v in (b.squares or {}).items():
            squares[i + off] = {k + off: c for k, c in v.items()}
    return Superalgebra(f, labels, parities, brackets, squares, None)
