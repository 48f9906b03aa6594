"""Exact linear algebra over the fields in fields.py.

Three elimination backends behind one interface:

  * GF(2)            -- rows packed into Python ints (bit j = column j)
  * GF(p), p odd     -- dense numpy int64 with vectorized row operations
  * QQ, K(a)         -- generic dense rows of canonical scalars

Pivoting is deterministic everywhere: columns left to right, first row
with a nonzero entry wins.  Nullspace bases assign 1 to each free column
in increasing order, so repeated runs are byte-identical.

The incremental Echelon keeps a growing RREF basis with optional
provenance; kernel_mod_image builds on it the Ker M / Im M complement
that every homology (of ad_x on g, of rho_x on a module) is read from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import Field, FunctionField, PrimeField


class Matrix:
    """Dense matrix over one Field; entries stored row-major in canonical form."""

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        if self.rows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.nrows = len(self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


# ---------------------------------------------------------------------------
# GF(2) bit-packed backend
# ---------------------------------------------------------------------------


def pack_gf2(row: Sequence[int]) -> int:
    m = 0
    for j, a in enumerate(row):
        if a & 1:
            m |= 1 << j
    return m


def unpack_gf2(mask: int, n: int) -> List[int]:
    return [(mask >> j) & 1 for j in range(n)]


def _rref_gf2(masks: List[int], ncols: int) -> Tuple[List[int], List[int]]:
    """In-place style RREF on bit rows; returns (nonzero rows, pivot columns)."""
    rows = list(masks)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        piv = None
        for i in range(r, len(rows)):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] & bit):
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


# ---------------------------------------------------------------------------
# GF(p) numpy backend
# ---------------------------------------------------------------------------


def _rref_gfp(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    a = np.array(a % p, dtype=np.int64)
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(n):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col_all = a[:, c].copy()
        col_all[r] = 0
        mask = np.nonzero(col_all)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col_all[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a[:r], pivots


# ---------------------------------------------------------------------------
# generic backend
# ---------------------------------------------------------------------------


def _rref_generic(rows: List[list], field: Field) -> Tuple[List[list], List[int]]:
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _is_gf2(field: Field) -> bool:
    return isinstance(field, PrimeField) and field.p == 2


def _is_gfp(field: Field) -> bool:
    return isinstance(field, PrimeField) and field.p != 2


def rref(M: Matrix) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form: (nonzero rows as scalar lists, pivot columns)."""
    f = M.field
    if M.nrows == 0 or M.ncols == 0:
        return [], []
    if _is_gf2(f):
        rows, piv = _rref_gf2([pack_gf2(r) for r in M.rows], M.ncols)
        return [unpack_gf2(m, M.ncols) for m in rows], piv
    if _is_gfp(f):
        arr, piv = _rref_gfp(np.array(M.rows, dtype=np.int64), f.p)
        return [[int(x) for x in row] for row in arr], piv
    return _rref_generic(M.rows, f)


def mat_rank(M: Matrix) -> int:
    """Exact rank over the matrix's field."""
    f = M.field
    if M.nrows == 0 or M.ncols == 0:
        return 0
    if _is_gf2(f):
        return len(_rref_gf2([pack_gf2(r) for r in M.rows], M.ncols)[1])
    if _is_gfp(f):
        return len(_rref_gfp(np.array(M.rows, dtype=np.int64), f.p)[1])
    return len(_rref_generic(M.rows, f)[1])


def mat_nullspace(M: Matrix) -> List[list]:
    """Basis of the right kernel {x : M x = 0}; deterministic free-column order."""
    f = M.field
    n = M.ncols
    if n == 0:
        return []
    if M.nrows == 0:
        rowsr, piv = [], []
    else:
        rowsr, piv = rref(M)
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free:
        vec = [f.zero] * n
        vec[fc] = f.one
        for r, pc in enumerate(piv):
            vec[pc] = f.neg(rowsr[r][fc])
        basis.append(vec)
    return basis


def mat_mul_vec(M: Matrix, v: Sequence) -> list:
    f = M.field
    out = []
    for row in M.rows:
        acc = f.zero
        for a, x in zip(row, v):
            if not f.is_zero(a) and not f.is_zero(x):
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


def mat_solve(M: Matrix, b: Sequence) -> Optional[list]:
    """One particular solution of M x = b (free variables 0), or None."""
    f = M.field
    aug = Matrix(f, [list(r) + [bb] for r, bb in zip(M.rows, b)], ncols=M.ncols + 1)
    rowsr, piv = rref(aug)
    n = M.ncols
    x = [f.zero] * n
    for r, pc in enumerate(piv):
        if pc == n:
            return None  # inconsistent
        x[pc] = rowsr[r][n]
    return x


# ---------------------------------------------------------------------------
# incremental echelon with combination tracking
# ---------------------------------------------------------------------------


class Echelon:
    """Growing RREF basis of sparse/dense vectors with provenance tracking.

    Vectors are scalar lists.  reduce() returns the residual after
    elimination against the current basis together with the combination
    of previously *inserted* vectors that was subtracted; add() inserts
    the residual when it is nonzero.  Used for radical elimination,
    span/ideal computations and ker/im complements.
    """

    def __init__(self, field: Field, ncols: int, track: bool = False):
        self.field = field
        self.ncols = ncols
        self.track = track
        self.rows: List[list] = []
        self.pivots: List[int] = []
        self.combos: List[dict] = []  # combo over inserted-vector ids

    def __len__(self):
        return len(self.rows)

    def _reduce_vec(self, vec: list) -> Tuple[list, dict]:
        # rows are kept in full RREF, so the elimination coefficient against
        # row r is simply vec[pivot_r] (other rows vanish at that column);
        # only rows whose pivot column is in the support of vec contribute.
        f = self.field
        vec = list(vec)
        combo: dict = {}
        hits = [(r, vec[pc]) for r, pc in enumerate(self.pivots)
                if not f.is_zero(vec[pc])]
        for r, c in hits:
            row = self.rows[r]
            vec = [f.sub(x, f.mul(c, y)) for x, y in zip(vec, row)]
            if self.track:
                for vid, coef in self.combos[r].items():
                    combo[vid] = f.add(combo.get(vid, f.zero), f.mul(c, coef))
        if self.track:
            combo = {k: v for k, v in combo.items() if not f.is_zero(v)}
        return vec, combo

    def reduce(self, vec: list) -> Tuple[list, dict]:
        return self._reduce_vec(vec)

    def contains(self, vec: list) -> bool:
        res, _ = self._reduce_vec(vec)
        return all(self.field.is_zero(x) for x in res)

    def complete_with_units(self) -> List[int]:
        """Insert the unit vectors e_0, e_1, ... in turn; returns the indices
        of those that were independent (a complement of the start span)."""
        f = self.field
        n = self.ncols
        return [m for m in range(n)
                if self.add([f.one if k == m else f.zero for k in range(n)]) is not None]

    def add(self, vec: list, vid=None) -> Optional[int]:
        """Insert vec; returns its pivot column if independent, else None."""
        f = self.field
        res, combo = self._reduce_vec(vec)
        piv = None
        for j, x in enumerate(res):
            if not f.is_zero(x):
                piv = j
                break
        if piv is None:
            return None
        inv = f.one
        if res[piv] != f.one:  # already-normalised rows are common (always at p = 2)
            inv = f.inv(res[piv])
            res = [f.mul(inv, x) for x in res]
        mycombo = {}
        if self.track:
            mycombo = {k: f.mul(inv, f.neg(v)) for k, v in combo.items()}
            mycombo[vid] = f.add(mycombo.get(vid, f.zero), inv)
        # back-substitute into existing rows to keep full RREF
        for r in range(len(self.rows)):
            c = self.rows[r][piv]
            if not f.is_zero(c):
                self.rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(self.rows[r], res)]
                if self.track:
                    for vid2, coef in mycombo.items():
                        self.combos[r][vid2] = f.sub(self.combos[r].get(vid2, f.zero),
                                                     f.mul(c, coef))
        # keep rows sorted by pivot column
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, res)
        self.pivots.insert(pos, piv)
        self.combos.insert(pos, mycombo)
        return piv


def kernel_mod_image(M: Matrix) -> Tuple[Echelon, List[list], List[list]]:
    """Ker M / Im M for a square M (the caller checks M^2 = 0).

    Returns the echelon of the column space, the nullspace basis, and the
    complement rows: the kernel vectors reduced modulo the image and
    echelonized among themselves, so they vanish on the image pivots.
    """
    f = M.field
    im = Echelon(f, M.nrows)
    for j in range(M.ncols):
        im.add([row[j] for row in M.rows])
    ker = mat_nullspace(M)
    comp = Echelon(f, M.ncols)
    for vec in ker:
        comp.add(im.reduce(vec)[0])
    return im, ker, [list(r) for r in comp.rows]
