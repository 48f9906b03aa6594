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
A sum of many scaled elements is one el_sum, which keeps one accumulator
dict per call and chooses its kernel once: plain ints reduced mod p as
they are added over GF(p), the Field's add and mul over QQ and K(a).
bracket and square hand it every product of a coefficient pair with a
stored constant (the sign of [b_i, b_j], i > j, on the coefficient), and
the sums of build, modules, ds and audit go through it too; no partial
sum is copied.  el_add and el_addmul are for one sum of two elements.

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
bracketed for it.  The center comes from one nullspace (through
linalg.nullspace_coo, fed the stored constants), and center ∩ [g, g] by a
dimension count: both are graded, so per parity
dim C ∩ D = dim C + dim D - dim (C + D).

check_axioms verifies super Jacobi as ad_{[b_i,b_j]} = ad_i ad_j -
s_ij ad_j ad_i for all pairs i <= j, every column at once, by one
contraction of the nonzero structure constants (_failing_sums), and the
failures are named from the keys of the nonzero sums.  The constructor
keeps every basis index in [0, dim).

invariant_forms solves the invariance equations of an even supersymmetric
form, assembled from the nonzero structure constants as (equation,
variable, value) triples (_form_equations) and handed to
linalg.nullspace_coo, which sums them and, when every sum is a machine
integer (GF(p), QQ within int64), deletes the variables that stand alone
in some equation (they are 0; most are) and eliminates only the core
left; over K(a) it eliminates the summed rows whole.

The Jacobi check, the center and the forms read the constants through
one cached reader, _constants, and take one array path on every field:
the join, the keys and the equation layout are integer arrays, and only
the scalar ops on the values (linalg.array_ops) depend on the field.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fields import Field, PrimeField, UsageError
from .linalg import Echelon, Element, array_ops, nullspace_coo, sum_by_key, zero_of

FORMS_DIM_CUTOFF = 48  # invariant-form space solved only below this dimension
MAX_VIOLATIONS = 10  # check_axioms stops collecting after this many
JACOBI_CHUNK = 1 << 16  # path terms per step of the GF(p) Jacobi contraction


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


def el_sum(f: Field, terms: List[Tuple[object, Element]]) -> Element:
    """The sum of c * v over the pairs (c, v) of terms, kept in one
    accumulator dict: over GF(p) as plain ints (c may be any int), each
    reduced mod p as it is added; over QQ and K(a) with the Field's add and
    mul.  No zero is kept, and a key sits where it first appeared."""
    if not terms:
        return {}  # the commonest sum while g(A) is built
    acc: dict = {}
    if isinstance(f, PrimeField):
        p = f.spec.p
        for c, v in terms:
            for k, x in v.items():
                acc[k] = (acc[k] + c * x) % p if k in acc else c * x % p
        zero = 0
    else:
        add, mul, zero = f.add, f.mul, zero_of(f)
        for c, v in terms:
            for k, x in v.items():
                acc[k] = add(acc[k], mul(c, x)) if k in acc else mul(c, x)
    return {k: s for k, s in acc.items() if s != zero} if zero in acc.values() else acc


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
        self._consts: Optional[tuple] = None  # _constants, once read
        n = len(labels)
        if len(parities) != n:
            raise ValueError("parity vector length mismatch")
        if not set(self.parities) <= {0, 1}:
            raise ValueError("a parity outside {0, 1}")
        if len(set(self.labels)) != n:
            raise ValueError("repeated basis labels")
        if self.weights is not None and len(self.weights) != n:
            raise ValueError("weight vector length mismatch")
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
        terms = []
        for term in expr.replace(" ", "").split("+"):
            m = re.fullmatch(r"h(\d*)|x(\d+)", term)
            if m is None:
                raise UsageError(f"bad element expression {expr!r}: use h<k> and x<k> terms")
            k = int(m.group(1) or m.group(2) or 1)
            names = (f"{term[0]}{k}", f"E{k},{k}" if term[0] == "h" else f"E{k},{k + 1}")
            label = next((s for s in names if s in self.labels), None)
            if label is None:
                raise UsageError(f"{term} names no basis element (no label {' or '.join(names)})")
            terms.append((f.one, {self.labels.index(label): f.one}))
        return el_sum(f, terms)

    # -- bracket and squaring ----------------------------------------------

    def bracket(self, u: Element, v: Element) -> Element:
        """[u, v], every product of a coefficient pair with a stored
        constant summed by el_sum in one accumulator."""
        f = self.field
        gfp = isinstance(f, PrimeField)
        mul = operator.mul if gfp else f.mul
        neg = operator.neg if gfp else f.neg
        get, par, p2 = self.brackets.get, self.parities, f.p == 2
        terms = []
        for i, a in u.items():
            for j, b in v.items():
                w = get((i, j) if i <= j else (j, i))
                if w:
                    c = mul(a, b)
                    if i > j and not p2 and not (par[i] and par[j]):
                        c = neg(c)
                    terms.append((c, w))
        return el_sum(f, terms)

    def square(self, u: Element) -> Element:
        """s(u) for p = 2; u must have no even component."""
        f = self.field
        if f.p != 2:
            raise ValueError("squaring map is defined only in characteristic 2")
        for k in u:
            if self.parities[k] == 0:
                raise ValueError(f"square of element with even component {self.labels[k]}")
        mul = operator.mul if isinstance(f, PrimeField) else f.mul
        squares, get = self.squares or {}, self.brackets.get
        items = sorted(u.items())
        terms = []
        for idx, (i, c) in enumerate(items):
            if i in squares:
                terms.append((mul(c, c), squares[i]))
            for (j, d) in items[idx + 1:]:
                w = get((i, j))
                if w:
                    terms.append((mul(c, d), w))
        return el_sum(f, terms)

    def ad_matrix(self, u: Element) -> List[Element]:
        """Sparse rows of ad_u = [u, .] in the basis: row m is {j: coefficient
        of b_m in [u, b_j]}, zeros left out (the input of
        linalg.kernel_mod_image and of ds.adjoint_rank).

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

    # -- axioms --------------------------------------------------------------

    def check_axioms(self) -> List[str]:
        """Exhaustive verification; returns violation descriptions (empty =
        pass), at most MAX_VIOLATIONS of them.

        First the parity and weight of every stored constant, then the super
        Jacobi rule on every pair i <= j, the square rule (p = 2) and the
        cube rule (p = 3), from the keys of _failing_sums: each failing pair
        at its least failing column, the cube rule at every odd b_k it fails
        on, the square rule of each odd b_i at its least failing column."""
        f = self.field
        n = self.dim
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
                    wij = tuple(map(operator.add, wi, wj))
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
        last = None
        for i, j, k in self._failing_sums():
            if i == n and f.p == 3:  # the cube rule, keyed (n, 0): every column
                _note(bad, f"[x,[x,x]] != 0 for odd {self.labels[k]}")
            elif (i, j) != last:  # the least failing column of the pair
                _note(bad, f"Jacobi failure at ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                      if i < n else
                      f"[s(x),z] != [x,[x,z]] for x={self.labels[j]}, z={self.labels[k]}")
            last = i, j
        return bad

    def _failing_sums(self) -> List[Tuple[int, int, int]]:
        """The sorted distinct (i, j, k) of the nonzero sums of the super
        Jacobi rule on the pairs i <= j, the square rule (p = 2, keyed
        (n, i)) and the cube rule (p = 3, keyed (n, 0)) at column k, from
        one contraction of the constants C(a,b,m) of _constants.

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
        not collide.

        Only the scalar ops depend on the field (linalg.array_ops): each
        term is one product of two values, and linalg.sum_by_key sums the
        terms of a key.  Over GF(p) a product is below p^2 <= 2^62
        (FieldSpec caps p at 2^31) and is reduced before the sum; over QQ
        the values are the scaled integers of _constants, which scales
        each sum by den^2.

        Every term takes its component t from the second constant, so the
        join runs over a run of components t at a time, with at most
        JACOBI_CHUNK paths unless one component alone has more: memory
        stays bounded on the largest builds."""
        f, n, p = self.field, self.dim, self.field.p
        if not self.brackets:
            return []  # every ad_x is 0
        ops = array_ops(f)
        A, B, M, C, S = self._constants()
        odd = np.array(self.parities, dtype=bool)
        X, Y, L, V = A, B, M, C  # the first constants C(x,y,l)
        if S is not None:  # and S(i,l) as C(n,i,l)
            X, Y = np.concatenate([A, np.full(S[0].size, n)]), np.concatenate([B, S[0]])
            L, V = np.concatenate([M, S[1]]), np.concatenate([C, S[2]])
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
        found = []
        for R in chunks:
            r, s = _join(np.bincount(B[R] + 1, minlength=n + 1).cumsum(), L)
            s = R[s]
            x, y, u, t = X[r], Y[r], A[s], M[s]
            # the three readings of each path as keys (i, j, k, t), kept on
            # i <= j; where both are odd, sigma (first) is 1 and s_ij (third)
            # is -1, and the second reading is negated
            if p == 2:
                diag = x == u
                i = np.concatenate([x, u, np.where(diag, n, x)])
                keep = np.concatenate([(x < y) | (x == n), (u < x) & (x < n), (x < u) | diag & odd[u]])
            else:
                i = np.concatenate([x, u, x])
                keep = np.concatenate([x <= y, u <= x, x <= u])
            j, k = np.concatenate([y, x, u]), np.concatenate([u, y, y])
            key = ((i * n + j) * n + k) * n + np.concatenate([t, t, t])
            base = ops.mul(V[r], C[s])
            terms = [base, base, base]
            if p != 2:
                minus = ops.neg(base)
                terms = [np.where(odd[B[s]] & odd[u], base, minus), minus,
                         np.where(odd[x] & odd[u], minus, base)]
            key, per = key[keep], np.concatenate(terms)[keep]
            if p == 3:
                cube = ((x == u) & (y == x)).nonzero()[0]
                key = np.concatenate([key, (n ** 3 + x[cube]) * n + t[cube]])
                per = np.concatenate([per, base[cube]])
            failing, _sums = sum_by_key(ops, key, per)
            if failing.size:
                found.append(failing)
        if not found:
            return []
        ijk = np.unique(np.concatenate(found) // n)
        i, jk = np.divmod(ijk, n * n)
        return list(zip(i.tolist(), *(z.tolist() for z in np.divmod(jk, n))))

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
        sum_i x_i [b_i, b_k]_m = 0 per nonzero (k, m), the stored constants
        handed to linalg.nullspace_coo as they are, one (equation, variable,
        value) triple each."""
        A, B, M, C, _squares = self._constants()
        return nullspace_coo(self.field, self.dim, B * self.dim + M, A, C)

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
        pairs = self._form_pairs()
        return self._forms_of(pairs, nullspace_coo(self.field, len(pairs),
                                                   *self._form_equations(pairs)))

    def _forms_of(self, pairs: List[Tuple[int, int]], sols: List[Element]) -> dict:
        """invariant_forms' answer from nullspace vectors over the pairs."""
        f = self.field
        n = self.dim
        _var, flip = self._form_layout(pairs)

        def to_matrix(sol):
            B = [[f.zero] * n for _ in range(n)]
            for t, c in sol.items():
                i, j = pairs[t]
                B[i][j], B[j][i] = c, f.neg(c) if flip[j, i] else c
            return B

        return {"dim": len(sols), "forms": [to_matrix(s) for s in sols]}

    def _form_pairs(self) -> List[Tuple[int, int]]:
        """The variables of an even supersymmetric form: the entries B_ij,
        i <= j, that may be nonzero, in row-major order."""
        odd_zero = self.field.p != 2  # B(x,x) = -B(x,x) forces 0 on odd x
        return [(i, j) for i in range(self.dim) for j in range(i, self.dim)
                if self.parities[i] == self.parities[j]
                and not (i == j and self.parities[i] == 1 and odd_zero)]

    def _form_layout(self, pairs: List[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """(var, flip), n x n arrays: B_ab is x_t for t = var[a, b] >= 0, the
        variable of pairs[t], negated where flip[a, b], and 0 where var is
        -1.  Supersymmetry gives B_ba = -B_ab for odd a != b (p != 2)."""
        n = self.dim
        var = np.full((n, n), -1, dtype=np.int64)
        lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        var[lo, hi] = var[hi, lo] = np.arange(len(pairs))
        flip = np.zeros((n, n), dtype=bool)
        if self.field.p != 2:  # odd pairs have i < j: B(x, x) = 0 on odd x
            odd = np.array(self.parities)[lo] == 1
            flip[hi[odd], lo[odd]] = True
        return var, flip

    def _constants(self) -> tuple:
        """The nonzero structure constants C[a,b,m] of both orders (a, b) of
        every stored pair, and the squares: (A, B, M, C, S), int64 index
        arrays a, b, m and the values C, the other order signed here,
        [b_b, b_a] = -(-1)^{p(a)p(b)} [b_a, b_b] (no sign at p = 2), and
        S = (I, L, V) for s(b_i) = sum V b_l over the odd i at p = 2 (None
        without squares).  The values C and V are one array of
        linalg.array_ops (over QQ every value times the lcm of the
        denominators, which changes no answer: the center and invariance
        equations are linear in the values, each Jacobi term a product of
        two).  Read once and kept, read-only: the algebra is immutable by
        convention."""
        if self._consts is not None:
            return self._consts
        ops = array_ops(self.field)
        sq = self.squares or {}
        I, J, M = np.array([x for (i, j), w in self.brackets.items() for m in w for x in (i, j, m)],
                           dtype=np.int64).reshape(-1, 3).T
        C = ops.array([c for w in self.brackets.values() for c in w.values()]
                      + [c for v in sq.values() for c in v.values()])
        S = None
        if sq:
            S = (*np.array([x for i, v in sq.items() for l in v for x in (i, l)],
                           dtype=np.int64).reshape(-1, 2).T, C[I.size:])
            C = C[:I.size]
        two = I != J
        flip = C[two]
        if self.field.p != 2:  # the other order keeps its sign where both are odd
            odd = np.array(self.parities, dtype=bool)
            flip = np.where((odd[I] & odd[J])[two], flip, ops.neg(flip))
        out = (np.concatenate([I, J[two]]), np.concatenate([J, I[two]]),
               np.concatenate([M, M[two]]), np.concatenate([C, flip]))
        for x in out + (S or ()):
            x.flags.writeable = False
        self._consts = out + (S,)
        return self._consts

    def _form_equations(self, pairs: List[Tuple[int, int]]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The invariance equations as COO triples (equation, variable,
        value) for linalg.nullspace_coo, which sums the entries of one
        (equation, variable): B([b_i,b_j], b_k) - B(b_i, [b_j,b_k]) = 0 is
        equation (i n + j) n + k, and at p = 2 B(s(b_i), b_k) -
        B(b_i, [b_i,[b_i,b_k]]) = 0 is equation n^3 + i n + k, for odd b_i.
        The values are those of _constants.

        Each nonzero structure constant C[i,j,m] adds n entries: C[i,j,m] at
        B(b_m, b_k) to equation (i, j, k) and -C[i,j,m] at B(b_l, b_m) to
        equation (l, i, j), for every k and l.  Each square constant S(i,m)
        adds S(i,m) at B(b_m, b_k) to the square equation (i, k), and each
        path C(i,k,l) C(i,l,m), one join of the constants on l, adds
        -C(i,k,l) C(i,l,m) at B(b_i, b_m) to it.  Entries at an entry of B
        that is 0 by parity are left out."""
        f = self.field
        n = self.dim
        if not self.brackets and not self.squares:  # abelian: no equation
            return tuple(np.zeros((3, 0), dtype=np.int64))
        ops = array_ops(f)
        var, flip = self._form_layout(pairs)
        A, B, M, C, S = self._constants()
        minus = ops.neg(C)
        ab = A * n + B
        e, k = (var[M] >= 0).nonzero()  # C[a,b,m] at B(b_m, b_k)
        e2, l2 = (var[:, M].T >= 0).nonzero()  # -C[a,b,m] at B(b_l, b_m)
        rows = [ab[e] * n + k, l2 * n * n + ab[e2]]
        cols = [var[M[e], k], var[l2, M[e2]]]
        vals = [np.where(flip[M[e], k], minus[e], C[e]),
                np.where(flip[l2, M[e2]], C[e2], minus[e2])]
        if S is not None:  # p = 2: no sign
            SI, SL, SV = S
            e, k = (var[SL] >= 0).nonzero()  # S(i,m) at B(b_m, b_k)
            rows.append(n ** 3 + SI[e] * n + k)
            cols.append(var[SL[e], k])
            vals.append(SV[e])
        if f.p == 2:
            # the paths C(i,k,l) C(i,l,m), i odd, joined on (i, l)
            first = np.array(self.parities, dtype=bool)[A].nonzero()[0]
            by_ab = ab.argsort(kind="stable")
            r, s = _join(np.bincount(ab + 1, minlength=n * n + 1).cumsum(),
                         A[first] * n + M[first])
            r, s = first[r], by_ab[s]
            t = var[A[r], M[s]]
            on = t >= 0
            r, s = r[on], s[on]
            rows.append(n ** 3 + A[r] * n + B[r])
            cols.append(t[on])
            vals.append(ops.neg(ops.mul(C[r], C[s])))
        return tuple(np.concatenate(x) for x in (rows, cols, vals))

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
