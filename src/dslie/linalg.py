"""Exact linear algebra over the fields in fields.py.

Vectors cross this module's boundary in one format, the Element: a dict
{index: scalar} that never stores a zero, as in superalgebra.py.  Matrix
rows, the vectors handed to an Echelon, its residuals and rows, nullspace
bases and the Ker/Im of kernel_mod_image are all elements (zero
coefficients handed in count as absent), so the row format is decided
here alone.

One elimination engine, the incremental Echelon: a growing basis kept in
reduced row echelon form, with optional provenance of every row.  Inside,
its rows are sparse dicts {column: nonzero scalar} on every field, and
its row update out -= c*row uses one of three kernels, chosen by the
field:

  * GF(p), p = 2 included -- inline integer arithmetic mod p over the
                             support of the row
  * QQ                    -- Fraction arithmetic over the support of the row
  * K(a)                  -- the Field's own sub/mul on every column

K(a) visits every column, zeros included, on purpose: skipping them made
the bgl(4;alpha) defect op fast enough that 22 defect-sweep rounds
instead of 6 fit the benchmark's window, so that op became its 11th
largest sample and set the latency tail (33.8 -> 233 ms).  K(a) keeps its
cost until the tail does not depend on the round count.  Since every
matrix is eliminated whole, that update spans all n columns of ad_x or
rho_x, not a connected block of a few, so the K(a) Ker/Im costs about 3x
what it did block by block (0.052 against 0.017 s over the audit's 22
K(a) ad_x); an update over the row's support costs less than either.

Every rank, nullspace and span inserts its rows through Echelon.add.
extend() is the add loop over a batch of untracked rows; it stops once
the rank is full, which keeps tall systems cheap.  rref, mat_rank and
mat_nullspace are thin wrappers over it.

The array paths -- the super Jacobi sums of check_axioms, the center and
the invariance equations of the forms -- take one code path on every
field: integer arrays for the join, the keys and the layout, and a values
array whose elementwise ops alone the field chooses, in array_ops.
sum_by_key sums terms by key for the Jacobi check and for nullspace_coo,
which solves the center and the forms.  Those systems are tall and mostly
forced: most variables stand alone in some equation, so they are 0.  When
every sum is a machine integer (GF(p), QQ within int64), nullspace_coo
deletes every one-entry equation with its variable until none is left
(peel_mod_p, the singleton step of LP presolve) and eliminates only the
core left; otherwise (K(a), QQ beyond int64) it eliminates the summed rows
whole, one per nonzero equation in order.  K(a) is not peeled for the
reason its row updates visit every column: its elimination keeps its work.

Pivoting is deterministic everywhere: columns left to right, and the
RREF of a span is unique, so every insertion order gives the same rows.
Nullspace bases assign 1 to each free column in increasing order, and
every element returned lists its keys in increasing order, so repeated
runs are byte-identical.

Every homology (of ad_x on g, of rho_x on a module) is read from
kernel_mod_image: three eliminations of the whole matrix, held as sparse
rows on every field.  The rank of ad_x is mat_rank of those rows.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .fields import Field, PrimeField, RationalField

Element = Dict[int, object]  # {index: scalar}, a zero never stored


def zero_of(field: Field):
    """The value a scalar is compared with (== or !=) to test it for zero:
    the int 0 over QQ, since Fraction's equality has a fast path for an int
    and a slow one for a Fraction; the field's zero otherwise."""
    return 0 if isinstance(field, RationalField) else field.zero


class Matrix:
    """The input of rref, mat_rank and mat_nullspace: element rows over one
    Field, row i the dict {j: M[i][j]}, 0 <= j < ncols (a missing j is 0)."""

    def __init__(self, field: Field, rows: Sequence[Element], ncols: int):
        self.field = field
        self.rows = list(rows)
        self.ncols = ncols
        self.nrows = len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def rref(M: Matrix) -> Tuple[List[Element], List[int]]:
    """Reduced row echelon form: (nonzero rows as elements, pivot columns)."""
    ech = Echelon(M.field, M.ncols).extend(M.rows)
    return ech.rows, ech.pivots


def mat_rank(M: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(Echelon(M.field, M.ncols).extend(M.rows))


def mat_nullspace(M: Matrix) -> List[Element]:
    """Basis of the right kernel {x : M x = 0}; deterministic free-column order."""
    return [vec for _c, vec in _nullspace(Echelon(M.field, M.ncols).extend(M.rows))]


def _nullspace(ech: Echelon) -> List[Tuple[int, Element]]:
    """(free column c, the kernel vector with 1 at c and 0 at the other free
    columns) for the row echelon ech, in increasing c.  One pass over the
    RREF rows: row r puts -r[c] at its pivot into the vector of each free
    column c it holds (in full RREF a row holds no other pivot column)."""
    f = ech.field
    rows = ech._rows
    ker = {c: {c: f.one} for c in range(ech.ncols) if c not in rows}
    for pc in ech.pivots:
        for j, x in rows[pc].items():
            if j != pc:
                ker[j][pc] = f.neg(x)
    return [(c, dict(sorted(vec.items()))) for c, vec in ker.items()]


class Echelon:
    """Growing RREF basis of vectors with provenance tracking.

    Vectors are elements.  reduce() returns the residual after elimination
    against the current basis together with the combination of previously
    *inserted* vectors that was subtracted; add() inserts the residual when
    it is nonzero, and is the only way a row enters on every field.  Used
    for radical elimination, span/ideal computations, ker/im complements
    and, through extend() (the add loop), for rank and nullspace.

    The rows are private sparse dicts {column: nonzero scalar} keyed by
    their pivot column (_rows), in full RREF, and read as elements (rows).
    Full RREF makes a reduction one pass over the pivot columns in the
    vector's support: each coefficient is the vector's own entry there.
    A row update (_update) is one in-place out -= c*ys over the support of
    ys, except over K(a), where it visits every column (the module
    docstring says why); adding a row replaces, never edits, the rows that
    hold its pivot column, since copy() shares rows.  Those rows are found
    through a private index from each column to the pivots of the rows
    that hold it (_holders), which only _add changes and copy() copies, so
    an add costs the rows it updates, not the rank.  kernel_mod_image
    eliminates through the private _add and _reduce.
    """

    def __init__(self, field: Field, ncols: int, track: bool = False):
        self.field = field
        self.ncols = ncols
        self.track = track
        self._rows: Dict[int, dict] = {}  # pivot column -> row
        self._combos: Dict[int, dict] = {}  # pivot column -> combo over inserted-vector ids
        self._holders: Dict[int, set] = {}  # column -> pivots of the rows that hold it
        self.pivots: List[int] = []  # increasing
        self._p = field.p if isinstance(field, PrimeField) else 0
        self._qq = isinstance(field, RationalField)
        self._zero = zero_of(field)

    def __len__(self):
        return len(self.pivots)

    @property
    def rows(self) -> List[Element]:
        """The RREF rows as elements, by increasing pivot."""
        return [dict(sorted(self._rows[pc].items())) for pc in self.pivots]

    def copy(self) -> "Echelon":
        """An echelon with the same rows, which add() can grow without
        changing this one (add replaces rows, never edits them)."""
        out = Echelon(self.field, self.ncols, self.track)
        out._rows, out.pivots = dict(self._rows), list(self.pivots)
        out._combos = {pc: dict(c) for pc, c in self._combos.items()}
        out._holders = {j: set(pcs) for j, pcs in self._holders.items()}
        return out

    def _clean(self, u: Element) -> dict:
        zero = self._zero
        return {j: x for j, x in u.items() if x != zero}

    def _update(self, out: dict, c, ys: dict) -> None:
        """out -= c*ys, in place, no zero kept: over GF(p) and QQ on the
        support of ys, over K(a) on every column (see the module docstring)."""
        p = self._p
        if p:
            for j, y in ys.items():
                v = (out.get(j, 0) - c * y) % p
                if v:
                    out[j] = v
                else:
                    del out[j]
        elif self._qq:
            for j, y in ys.items():
                v = out.get(j, 0) - c * y
                if v:
                    out[j] = v
                else:
                    del out[j]
        else:
            f = self.field
            zero = f.zero
            for j in range(self.ncols):
                v = f.sub(out.get(j, zero), f.mul(c, ys.get(j, zero)))
                if v != zero:
                    out[j] = v
                elif j in out:
                    del out[j]

    def _reduce(self, out: dict) -> Tuple[dict, dict]:
        """Reduce out, a clean dict that is changed in place, against the
        rows; returns it with the combination subtracted.  In full RREF the
        coefficient of the row with pivot pc is out[pc] (no other row holds
        pc), so only the pivots in the support of out contribute."""
        f = self.field
        zero = self._zero
        rows = self._rows
        combo: dict = {}
        for pc in sorted(out.keys() & rows.keys()):
            c = out[pc]
            self._update(out, c, rows[pc])
            if self.track:
                for vid, coef in self._combos[pc].items():
                    combo[vid] = f.add(combo.get(vid, zero), f.mul(c, coef))
        if self.track:
            combo = {k: v for k, v in combo.items() if v != zero}
        return out, combo

    def reduce(self, u: Element) -> Tuple[Element, dict]:
        res, combo = self._reduce(self._clean(u))
        return dict(sorted(res.items())), combo

    def complete_with_units(self) -> List[int]:
        """Insert the unit vectors e_0, e_1, ... in turn; returns the indices
        of those that were independent (a complement of the start span)."""
        one = self.field.one
        return [m for m in range(self.ncols) if self.add({m: one}) is not None]

    def add(self, u: Element, vid=None) -> Optional[int]:
        """Insert u; returns its pivot column if independent, else None."""
        return self._add(self._clean(u), vid)

    def _add(self, vec: dict, vid=None) -> Optional[int]:
        """add() of a clean dict, which becomes the caller's no longer."""
        f = self.field
        zero = self._zero
        res, combo = self._reduce(vec)
        if not res:
            return None
        piv = min(res)
        inv = f.one
        if res[piv] != f.one:  # already-normalised rows are common (always at p = 2)
            inv = f.inv(res[piv])
            p = self._p
            res = ({j: inv * x % p for j, x in res.items()} if p
                   else {j: f.mul(inv, x) for j, x in res.items()})
        mycombo = {}
        if self.track:
            mycombo = {k: f.mul(inv, f.neg(v)) for k, v in combo.items()}
            mycombo[vid] = f.add(mycombo.get(vid, zero), inv)
        # back-substitute into the rows that hold piv, to keep full RREF;
        # only the columns of res can change in them
        rows = self._rows
        holders = self._holders
        for pc in list(holders.get(piv, ())):
            row = dict(rows[pc])
            c = row[piv]
            self._update(row, c, res)
            rows[pc] = row
            for j in res:
                if j in row:
                    holders.setdefault(j, set()).add(pc)
                else:
                    holders[j].discard(pc)
            if self.track:
                combo_pc = self._combos[pc]
                for vid2, coef in mycombo.items():
                    combo_pc[vid2] = f.sub(combo_pc.get(vid2, zero), f.mul(c, coef))
        rows[piv] = res
        for j in res:
            holders.setdefault(j, set()).add(piv)
        self._combos[piv] = mycombo
        bisect.insort(self.pivots, piv)
        return piv

    def extend(self, rows: Sequence[Element]) -> "Echelon":
        """Insert a batch of untracked rows through add(); stops once the
        rank is full."""
        if self.track:
            raise ValueError("extend inserts untracked rows; use add() to track them")
        for row in rows:
            if len(self.pivots) == self.ncols:
                break
            self.add(row)
        return self


class ArrayOps(NamedTuple):
    """The scalar ops of the array paths over one field (array_ops)."""

    array: Callable  # field scalars -> an array of them, all times one nonzero factor
    mul: Callable  # elementwise product of two arrays
    neg: Callable  # elementwise negation
    zero: object  # what a sum is compared with to test it for zero
    reduceat: Callable  # (terms, starts) -> the sums of the runs that begin at starts
    scalar: Callable  # an array value -> the field scalar it stands for


def array_ops(field: Field) -> ArrayOps:
    """The only field dispatch of the array paths (the Jacobi sums, the
    center, the invariance equations):

      * GF(p) -- int64 arithmetic, products and sums reduced mod p
      * QQ    -- object arrays of Python ints: the scalars scaled by the lcm
                 of their denominators, so no sum has an int64 bound
      * K(a)  -- object arrays of the Field's values, through np.frompyfunc
                 of its add, mul and neg; add and mul are cached for the
                 lifetime of these ops, since the constants take few
                 distinct values; a caller makes them once per solve or
                 check and hands them down

    A common factor leaves a linear system's nullspace and the zero test of
    each sum of products of two values unchanged.  The GF(p) and QQ ops
    hold no state, so each field's are made once."""
    if not field.spec.parametric:
        return _exact_ops(field)
    add, mul = (np.frompyfunc(functools.lru_cache(maxsize=None)(op), 2, 1)
                for op in (field.add, field.mul))
    return ArrayOps(lambda xs: np.array(xs, dtype=object), mul, np.frompyfunc(field.neg, 1, 1),
                    field.zero, add.reduceat, lambda x: x)


@functools.lru_cache(maxsize=None)
def _exact_ops(field: Field) -> ArrayOps:
    """array_ops over GF(p) and QQ."""
    if isinstance(field, PrimeField):
        p = field.p
        return ArrayOps(lambda xs: np.array(xs, dtype=np.int64), lambda a, b: a * b % p,
                        np.negative, 0, lambda a, at: np.add.reduceat(a, at) % p, int)

    def scaled(xs):
        den = math.lcm(1, *(x.denominator for x in xs))
        return np.array([x.numerator * (den // x.denominator) for x in xs], dtype=object)
    return ArrayOps(scaled, np.multiply, np.negative, 0, np.add.reduceat, Fraction)


def sum_by_key(ops: ArrayOps, keys: np.ndarray, terms: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The terms summed by key: (the distinct keys whose sum is nonzero, in
    increasing order; their sums), terms an array made by ops."""
    order = keys.argsort()
    keys = keys[order]
    starts = _firsts(keys).nonzero()[0]
    sums = ops.reduceat(terms[order], starts) if keys.size else terms[:0]
    nonzero = sums != ops.zero
    return keys[starts[nonzero]], sums[nonzero]


def nullspace_coo(field: Field, ncols: int, rows: np.ndarray, cols: np.ndarray,
                  vals: np.ndarray) -> List[Element]:
    """mat_nullspace of the sparse system whose equation rows[e] >= 0 has
    vals[e] (an array of array_ops(field)) at variable cols[e] < ncols,
    repeated (equation, variable) entries summed by sum_by_key.  When every
    sum is a machine integer (GF(p); QQ within int64) only the core that
    peel_mod_p leaves is eliminated; otherwise (K(a); QQ beyond int64) the
    summed rows go to mat_nullspace whole (_element_rows), for the reason
    in the module docstring.  Either way the answer is the nullspace of the
    whole system byte for byte: each variable the peel deletes is an RREF
    pivot whose row is the unit row e_t, so no other RREF row and no kernel
    vector has a nonzero entry at t, and the free columns are the core's."""
    ops = array_ops(field)
    key, sums = sum_by_key(ops, rows * ncols + cols, vals)
    eq, var = np.divmod(key, max(ncols, 1))
    ints = sums.tolist() if sums.dtype == object else None
    if ints is not None and not all(type(x) is int and -(1 << 63) <= x < 1 << 63 for x in ints):
        return mat_nullspace(_element_rows(field, ops, ncols, eq, var, sums))
    core, kept = peel_mod_p(field, ncols, eq, var, sums.astype(np.int64, copy=False))
    kept = kept.tolist()
    return [{kept[j]: x for j, x in vec.items()} for vec in mat_nullspace(core)]


def _element_rows(field: Field, ops: ArrayOps, ncols: int, eq: np.ndarray,
                  var: np.ndarray, sums: np.ndarray) -> Matrix:
    """The summed system of nullspace_coo as element rows: one per
    equation, in increasing order, its entries by increasing variable;
    ops are the field's array_ops the sums were made with."""
    scalar = ops.scalar
    rows: Dict[int, Element] = {}
    for e, j, x in zip(eq.tolist(), var.tolist(), sums.tolist()):
        rows.setdefault(e, {})[j] = scalar(x)
    return Matrix(field, list(rows.values()), ncols=ncols)


def peel_mod_p(field: Field, ncols: int, eq: np.ndarray, v: np.ndarray,
               c: np.ndarray) -> Tuple[Matrix, np.ndarray]:
    """The core of a sparse system over GF(p) or QQ (p = 0, with integer
    values), given as summed entries: equation eq[e] has the nonzero int64
    value c[e] at variable v[e] (c[e] in [0, p) when p > 0), sorted by
    (equation, variable) with no pair repeated, as sum_by_key leaves them.

    Every equation with exactly one nonzero entry is deleted together with
    that variable's column, until no such equation is left; a deletion can
    leave another equation with one entry, so this repeats.  When p > 0 the
    surviving equations are scaled to leading entry 1; repeats are dropped.
    Returns (core, kept): the core as a Matrix of element rows over the
    kept columns and the field (int values mod p, Fractions when p = 0),
    kept the increasing indices of the columns that were not deleted.

    A deleted variable is 0 in every solution: its equation says c x_t = 0
    with c != 0.  So the row space of the system is the direct sum of the
    unit rows e_t of the deleted variables and the core rows (0 on the
    deleted columns), and those unit rows and the core's RREF together are
    the RREF of the whole system (see nullspace_coo)."""
    p = field.p
    r = np.cumsum(_firsts(eq)) - 1  # equations numbered 0, 1, ...
    deleted = np.zeros(ncols, dtype=bool)
    while r.size:
        single = np.bincount(r)[r] == 1  # the entries of one-entry equations
        if not single.any():
            break
        deleted[v[single]] = True
        live = ~deleted[v]
        r, v, c = r[live], v[live], c[live]
    kept = (~deleted).nonzero()[0]
    if not r.size:
        return Matrix(field, [], ncols=kept.size), kept
    new_eq = _firsts(r)
    eq = np.cumsum(new_eq) - 1  # core equation of every entry
    start = new_eq.nonzero()[0]
    if p > 2:  # scale to leading entry 1 (at p = 2 every entry is 1)
        lead = c[start].tolist()
        inv = {x: pow(x, p - 2, p) for x in set(lead)}
        c = c * np.array([inv[x] for x in lead], dtype=np.int64)[eq] % p
    buf = np.column_stack([v, c]).tobytes()  # a row is its (variable, value) pairs
    at = (start * 16).tolist() + [16 * c.size]  # byte offsets of the rows
    keys = [buf[a:b] for a, b in zip(at, at[1:])]
    distinct = np.zeros(start.size, dtype=bool)
    distinct[list(dict(zip(keys, range(len(keys)))).values())] = True
    on = distinct[eq]
    core: List[Element] = [{} for _ in range(int(distinct.sum()))]
    values = c[on].tolist()
    for e, j, x in zip((np.cumsum(distinct) - 1)[eq[on]].tolist(),
                       (np.cumsum(~deleted) - 1)[v[on]].tolist(),
                       values if p else map(Fraction, values)):
        core[e][j] = x
    return Matrix(field, core, ncols=kept.size), kept


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    out = np.empty(a.size, dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def kernel_mod_image(field: Field, rows: Sequence[Element]
                     ) -> Tuple[Echelon, List[Element], List[Element]]:
    """Ker M / Im M for a square M held as sparse rows, row m the element
    {j: M[m][j]} of its nonzero entries (the caller checks M^2 = 0).

    Returns the echelon of the column space, the nullspace basis, and the
    complement rows: the kernel vectors reduced modulo the image and
    echelonized among themselves.  The image (from the columns) and the
    kernel (from the rows) come from two independent eliminations, so a
    caller comparing their dimensions checks rank-nullity.
    """
    n = len(rows)
    zero = zero_of(field)
    cols: List[dict] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x != zero:
                cols[j][i] = x
    image, row_ech, comp = Echelon(field, n), Echelon(field, n), Echelon(field, n)
    for col in cols:
        image._add(col)
    for row in rows:
        row_ech._add(row_ech._clean(row))
    ker = [vec for _c, vec in _nullspace(row_ech)]
    for vec in ker:
        comp._add(image._reduce(dict(vec))[0])
    return image, ker, comp.rows
