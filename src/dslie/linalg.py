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
cost until the tail does not depend on the round count.

Every rank, nullspace and span inserts its rows through Echelon.add.
extend() is the add loop over a batch of untracked rows; it stops once
the rank is full, which keeps tall systems cheap.  rref, mat_rank and
mat_nullspace are thin wrappers over it.

The fingerprint's two GF(p) systems, the invariance equations of the
forms and the center's equations, are tall and mostly forced: most of
their variables stand alone in some equation, so they are 0.
nullspace_mod_p takes such a system as integer COO triples, deletes every
one-entry equation with its variable until none is left (peel_mod_p, the
singleton step of LP presolve), and eliminates only the core that remains
through mat_nullspace.  Its answer is the nullspace of the whole system
byte for byte.

Pivoting is deterministic everywhere: columns left to right, and the
RREF of a span is unique, so every insertion order gives the same rows.
Nullspace bases assign 1 to each free column in increasing order, and
every element returned lists its keys in increasing order, so repeated
runs are byte-identical.

Every homology (of ad_x on g, of rho_x on a module) is read from
kernel_mod_image, and the rank of ad_x from sparse_rank.  Both take the
matrix as sparse rows on every field and eliminate each of its connected
blocks on its own: ad_x and rho_x split into many small blocks (rho_x on
the 32-dim bgl(4;alpha) module has 13-19 blocks of at most 4 indices).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import Field, PrimeField, RationalField, field_for

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
    hold its pivot column, since copy() shares rows.  kernel_mod_image and
    sparse_rank eliminate the rows of their small blocks through the
    private _add and _reduce.
    """

    def __init__(self, field: Field, ncols: int, track: bool = False):
        self.field = field
        self.ncols = ncols
        self.track = track
        self._rows: Dict[int, dict] = {}  # pivot column -> row
        self._combos: Dict[int, dict] = {}  # pivot column -> combo over inserted-vector ids
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

    def contains(self, u: Element) -> bool:
        return not self._reduce(self._clean(u))[0]

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
        # back-substitute into the rows that hold piv, to keep full RREF
        rows = self._rows
        for pc in [pc for pc, row in rows.items() if piv in row]:
            row = dict(rows[pc])
            c = row[piv]
            self._update(row, c, res)
            rows[pc] = row
            if self.track:
                combo_pc = self._combos[pc]
                for vid2, coef in mycombo.items():
                    combo_pc[vid2] = f.sub(combo_pc.get(vid2, zero), f.mul(c, coef))
        rows[piv] = res
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


def peel_mod_p(p: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
               vals: np.ndarray) -> Tuple[Matrix, np.ndarray]:
    """The core of a sparse system mod p, given as COO triples of int64
    arrays: equation rows[e] >= 0 has vals[e] at variable cols[e]
    (0 <= cols[e] < ncols).

    Repeated (equation, variable) entries are summed mod p and zero entries
    dropped.  Then every equation with exactly one nonzero entry is
    deleted together with that variable's column, until no such equation is
    left; a deletion can leave another equation with one entry, so this
    repeats.  The surviving equations are scaled to leading entry 1 and
    repeats dropped.  Returns (core, kept): the core as a Matrix of element
    rows (int values) over the kept columns, kept the increasing indices of
    the columns that were not deleted.

    A deleted variable is 0 in every solution: its equation says c x_t = 0
    with c != 0.  So the row space of the system is the direct sum of the
    unit rows e_t of the deleted variables and the core rows (0 on the
    deleted columns), and those unit rows and the core's RREF together are
    the RREF of the whole system (see nullspace_mod_p)."""
    key = rows * ncols + cols
    order = key.argsort()
    key, c = key[order], vals[order]
    first = _firsts(key).nonzero()[0]
    c = np.add.reduceat(c, first) % p
    nonzero = c != 0
    key, c = key[first[nonzero]], c[nonzero]
    r, v = np.divmod(key, max(ncols, 1))  # entries sorted by equation, then variable
    r = np.cumsum(_firsts(r)) - 1  # equations numbered 0, 1, ...
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
        return Matrix(field_for(p), [], ncols=kept.size), kept
    new_eq = _firsts(r)
    eq = np.cumsum(new_eq) - 1  # core equation of every entry
    start = new_eq.nonzero()[0]
    if p > 2:  # scale to leading entry 1 (at p = 2 every entry is 1)
        lead = c[start].tolist()
        inv = {x: pow(x, p - 2, p) for x in set(lead)}
        c = c * np.array([inv[x] for x in lead], dtype=np.int64)[eq] % p
    buf = (v * p + c).tobytes()
    at = (start * 8).tolist() + [8 * c.size]  # byte offsets of the int64 rows
    keys = [buf[a:b] for a, b in zip(at, at[1:])]
    distinct = np.zeros(start.size, dtype=bool)
    distinct[list(dict(zip(keys, range(len(keys)))).values())] = True
    on = distinct[eq]
    core: List[Element] = [{} for _ in range(int(distinct.sum()))]
    for e, j, x in zip((np.cumsum(distinct) - 1)[eq[on]].tolist(),
                       (np.cumsum(~deleted) - 1)[v[on]].tolist(), c[on].tolist()):
        core[e][j] = x
    return Matrix(field_for(p), core, ncols=kept.size), kept


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    out = np.empty(a.size, dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def nullspace_mod_p(p: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray) -> List[Element]:
    """mat_nullspace over GF(p) of the sparse system given as COO triples
    (see peel_mod_p), equal to the nullspace of the whole system byte for
    byte, from the elimination of its core alone.

    Each deleted variable t is an RREF pivot whose row is the unit row e_t,
    so no other RREF row and no kernel vector has a nonzero entry at t, and
    the free columns are the core's free columns.  The kernel vectors are
    the core's, moved back to the kept columns."""
    core, kept = peel_mod_p(p, ncols, rows, cols, vals)
    kept = kept.tolist()
    return [{kept[j]: x for j, x in vec.items()} for vec in mat_nullspace(core)]


def _blocks(rows: Sequence[Element]) -> List[List[int]]:
    """The connected blocks of a square M held as sparse rows: the
    components of the graph joining i and j when M[i][j] != 0 (union-find
    over the stored entries), each in increasing order."""
    root = list(range(len(rows)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, row in enumerate(rows):
        for j in row:
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    blocks: dict = {}
    for i in range(len(rows)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _block_rows(field: Field, rows: Sequence[Element], block: List[int]) -> List[dict]:
    """The rows of M restricted to one block, as clean dicts in block
    coordinates."""
    zero = zero_of(field)
    pos = {j: t for t, j in enumerate(block)}
    return [{pos[j]: x for j, x in rows[i].items() if x != zero} for i in block]


def sparse_rank(field: Field, rows: Sequence[Element]) -> int:
    """Rank of a square matrix with sparse rows: the sum over its connected
    blocks of the rank of each block's rows."""
    rank = 0
    for block in _blocks(rows):
        if len(block) > 1 or rows[block[0]]:
            ech = Echelon(field, len(block))
            for row in _block_rows(field, rows, block):
                ech._add(row)
            rank += len(ech)
    return rank


def kernel_mod_image(field: Field, rows: Sequence[Element]
                     ) -> Tuple[Echelon, List[Element], List[Element]]:
    """Ker M / Im M for a square M held as sparse rows, row m the element
    {j: M[m][j]} of its nonzero entries (the caller checks M^2 = 0).

    Returns the echelon of the column space, the nullspace basis, and the
    complement rows: the kernel vectors reduced modulo the image and
    echelonized among themselves.  The image (from the columns) and the
    kernel (from the rows) come from two independent eliminations, so a
    caller comparing their dimensions checks rank-nullity.

    Each connected block gets these three eliminations on its own rows and
    columns, in block coordinates; an index whose row and column are zero
    needs none, its unit vector is its kernel vector and complement row.
    The rows lifted back to the global indices and sorted by pivot (or free
    column) are the ones the whole matrix gives, byte for byte: the row
    space, the column space and the kernel are direct sums over the blocks,
    and an RREF is unique.
    """
    f = field
    image, ker, comp = [], [], []  # (global column, block, row in block coordinates)
    for block in _blocks(rows):
        if len(block) == 1 and not rows[block[0]]:
            ker.append((block[0], block, {0: f.one}))
            comp.append((block[0], block, {0: f.one}))
            continue
        sub = _block_rows(f, rows, block)
        cols: List[dict] = [{} for _ in block]
        for t, row in enumerate(sub):
            for s, x in row.items():
                cols[s][t] = x
        im = Echelon(f, len(block))
        for col in cols:
            im._add(col)
        row_ech = Echelon(f, len(block))
        for row in sub:
            row_ech._add(row)
        block_ker = _nullspace(row_ech)
        comp_ech = Echelon(f, len(block))
        for _c, vec in block_ker:
            comp_ech._add(im._reduce(dict(vec))[0])
        image += [(block[c], block, im._rows[c]) for c in im.pivots]
        ker += [(block[c], block, vec) for c, vec in block_ker]
        comp += [(block[c], block, comp_ech._rows[c]) for c in comp_ech.pivots]

    def lifted(part: list) -> List[Element]:  # by column, in the global indices
        return [{block[t]: row[t] for t in sorted(row)}
                for _c, block, row in sorted(part, key=lambda t: t[0])]

    out = Echelon(f, len(rows))
    out.pivots = sorted(c for c, _b, _r in image)
    out._rows = {c: {block[t]: x for t, x in row.items()} for c, block, row in image}
    out._combos = {c: {} for c in out.pivots}
    return out, lifted(ker), lifted(comp)
