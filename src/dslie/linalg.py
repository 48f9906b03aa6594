"""Exact linear algebra over the fields in fields.py.

One elimination engine, the incremental Echelon: a growing basis kept in
reduced row echelon form, with optional provenance of every row.  Its
rows are plain lists of canonical scalars and its row updates use one of
two kernels, chosen by the field:

  * GF(p), p = 2 included -- inline integer arithmetic mod p
  * QQ, K(a)              -- the Field's own add/mul/inv

extend() inserts a batch of untracked rows.  Over a prime field it runs
one vectorized numpy elimination over the whole batch, in int16 when p^2
fits and int64 otherwise (mod_p_dtype); over QQ and K(a) it inserts the
rows one by one.  The vectorized elimination drops the all-zero rows and
visits only the columns that are nonzero at the start, since no row
operation fills an all-zero column.  rref, mat_rank and mat_nullspace are
thin wrappers over it.

The fingerprint's two GF(p) systems, the invariance equations of the
forms and the center's equations, are tall and mostly forced: most of
their variables stand alone in some equation, so they are 0.
nullspace_mod_p takes such a system as integer COO triples, deletes every
one-entry equation with its variable until none is left (peel_mod_p, the
singleton step of LP presolve), and eliminates only the core that remains,
an integer array, through mat_nullspace.  Its answer is the nullspace of
the whole system byte for byte.

Pivoting is deterministic everywhere: columns left to right, and the
RREF of a span is unique, so every insertion order gives the same rows.
Nullspace bases assign 1 to each free column in increasing order, so
repeated runs are byte-identical.

Every homology (of ad_x on g, of rho_x on a module) is read from
kernel_mod_image, and the rank of ad_x from sparse_rank.  Both take the
matrix as sparse rows on every field and eliminate each of its connected
blocks on its own: ad_x and rho_x split into many small blocks (rho_x on
the 32-dim bgl(4;alpha) module has 13-19 blocks of at most 4 indices).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import Field, PrimeField, RationalField, field_for


def mod_p_dtype(p: int):
    """Integer dtype of the mod-p elimination: int16 when p^2 fits (it
    quarters the memory of tall systems), int64 otherwise (p <= 2^31 keeps
    p^2 in range)."""
    return np.int16 if p * p < 2**15 else np.int64


def zero_of(field: Field):
    """The value a scalar is compared with (== or !=) to test it for zero:
    the int 0 over QQ, since Fraction's equality has a fast path for an int
    and a slow one for a Fraction; the field's zero otherwise."""
    return 0 if isinstance(field, RationalField) else field.zero


class Matrix:
    """Dense matrix over one Field; entries stored row-major in canonical form.

    It is the input of rref, mat_rank and mat_nullspace.  Over a prime field
    the rows may also be a 2-D integer ndarray with entries in [0, p) (the
    core that peel_mod_p leaves of a sparse system); it is kept as is, not
    copied.  The homology matrices are sparse rows instead (see
    kernel_mod_image)."""

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.field = field
        if isinstance(rows, np.ndarray):
            self.rows = rows
            self.nrows, self.ncols = rows.shape
            return
        self.rows = [list(r) for r in rows]
        if self.rows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.nrows = len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def rref(M: Matrix) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form: (nonzero rows as scalar lists, pivot columns)."""
    ech = Echelon(M.field, M.ncols).extend(M.rows)
    return ech.rows, ech.pivots


def mat_rank(M: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(Echelon(M.field, M.ncols).extend(M.rows))


def mat_nullspace(M: Matrix) -> List[list]:
    """Basis of the right kernel {x : M x = 0}; deterministic free-column order."""
    return [vec for _c, vec in _nullspace(Echelon(M.field, M.ncols).extend(M.rows))]


def _nullspace(ech: Echelon) -> List[Tuple[int, list]]:
    """(free column c, the kernel vector with 1 at c and 0 at the other free
    columns) for the row echelon ech, in increasing c."""
    f = ech.field
    pivset = set(ech.pivots)
    basis = []
    for fc in range(ech.ncols):
        if fc in pivset:
            continue
        vec = [f.zero] * ech.ncols
        vec[fc] = f.one
        for row, pc in zip(ech.rows, ech.pivots):
            vec[pc] = f.neg(row[fc])
        basis.append((fc, vec))
    return basis


def _rref_mod_p(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """RREF of an integer array with entries in [0, p), computed in place
    (on a copy when some rows are zero); returns (nonzero rows, pivot
    columns).  The dtype must hold p^2.  All-zero rows are dropped first,
    and only the columns with a nonzero entry at the start are visited: a
    row operation never fills a column that is zero in every row.
    Ad-matrices are mostly zero rows and columns."""
    nonzero_rows = a.any(axis=1)
    if not nonzero_rows.all():
        a = a[nonzero_rows]
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    # ndarray methods and broadcasting, not np.nonzero and np.outer: the
    # loop runs once per pivot, and each of those adds a Python-level call
    for c in a.any(axis=0).nonzero()[0].tolist():
        if r == m:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col.nonzero()[0]
        if mask.size:
            a[mask] = (a[mask] - col[mask, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


class Echelon:
    """Growing RREF basis of vectors with provenance tracking.

    Vectors are scalar lists.  reduce() returns the residual after
    elimination against the current basis together with the combination
    of previously *inserted* vectors that was subtracted; add() inserts
    the residual when it is nonzero.  Used for radical elimination,
    span/ideal computations, ker/im complements and, through extend(),
    for rank and nullspace.
    """

    def __init__(self, field: Field, ncols: int, track: bool = False):
        self.field = field
        self.ncols = ncols
        self.track = track
        self.rows: List[list] = []
        self.pivots: List[int] = []
        self.combos: List[dict] = []  # combo over inserted-vector ids
        self._p = field.p if isinstance(field, PrimeField) else 0
        self._qq = isinstance(field, RationalField)
        self._zero = zero_of(field)

    def __len__(self):
        return len(self.rows)

    def copy(self) -> "Echelon":
        """An echelon with the same rows, which add() can grow without
        changing this one (add replaces rows, never edits them)."""
        out = Echelon(self.field, self.ncols, self.track)
        out.rows, out.pivots = list(self.rows), list(self.pivots)
        out.combos = [dict(c) for c in self.combos]
        return out

    def _sub(self, xs: list, c, ys: list) -> list:
        """xs - c*ys, entrywise."""
        p = self._p
        if p:
            return [(x - c * y) % p for x, y in zip(xs, ys)]
        if self._qq:
            return [x - c * y if y else x for x, y in zip(xs, ys)]
        f = self.field
        return [f.sub(x, f.mul(c, y)) for x, y in zip(xs, ys)]

    def _reduce_vec(self, vec: list) -> Tuple[list, dict]:
        # rows are kept in full RREF, so the elimination coefficient against
        # row r is simply vec[pivot_r] (other rows vanish at that column);
        # only rows whose pivot column is in the support of vec contribute.
        f = self.field
        zero = self._zero
        vec = list(vec)
        combo: dict = {}
        hits = [(r, vec[pc]) for r, pc in enumerate(self.pivots) if vec[pc] != zero]
        for r, c in hits:
            vec = self._sub(vec, c, self.rows[r])
            if self.track:
                for vid, coef in self.combos[r].items():
                    combo[vid] = f.add(combo.get(vid, zero), f.mul(c, coef))
        if self.track:
            combo = {k: v for k, v in combo.items() if v != zero}
        return vec, combo

    def reduce(self, vec: list) -> Tuple[list, dict]:
        return self._reduce_vec(vec)

    def contains(self, vec: list) -> bool:
        zero = self._zero
        return all(x == zero for x in self._reduce_vec(vec)[0])

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
        zero = self._zero
        res, combo = self._reduce_vec(vec)
        piv = next((j for j, x in enumerate(res) if x != zero), None)
        if piv is None:
            return None
        inv = f.one
        if res[piv] != f.one:  # already-normalised rows are common (always at p = 2)
            inv = f.inv(res[piv])
            p = self._p
            res = [(inv * x) % p for x in res] if p else [f.mul(inv, x) for x in res]
        mycombo = {}
        if self.track:
            mycombo = {k: f.mul(inv, f.neg(v)) for k, v in combo.items()}
            mycombo[vid] = f.add(mycombo.get(vid, zero), inv)
        # back-substitute into existing rows to keep full RREF
        for r, row in enumerate(self.rows):
            c = row[piv]
            if c != zero:
                self.rows[r] = self._sub(row, c, res)
                if self.track:
                    for vid2, coef in mycombo.items():
                        self.combos[r][vid2] = f.sub(self.combos[r].get(vid2, zero),
                                                     f.mul(c, coef))
        # keep rows sorted by pivot column
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, res)
        self.pivots.insert(pos, piv)
        self.combos.insert(pos, mycombo)
        return piv

    def extend(self, rows: Sequence[Sequence]) -> "Echelon":
        """Insert a batch of untracked rows (lists, or over a prime field an
        integer ndarray); stops once the rank is full."""
        if self.track:
            raise ValueError("extend inserts untracked rows; use add() to track them")
        p = self._p
        if not p:
            for row in rows:
                if len(self.rows) == self.ncols:
                    break
                self.add(row)
            return self
        if len(rows) == 0 or len(self.rows) == self.ncols:
            return self
        dtype = mod_p_dtype(p)
        a = np.array(rows, dtype=dtype)  # a copy: the elimination works in place
        if self.rows:
            a = np.vstack([np.array(self.rows, dtype=dtype), a])
        a %= p
        out, self.pivots = _rref_mod_p(a, p)
        self.rows = out.tolist()
        self.combos = [{} for _ in self.rows]
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
    repeats dropped.  Returns (core, kept): the core as an integer array
    over the kept columns, kept the increasing indices of the columns that
    were not deleted.

    A deleted variable is 0 in every solution: its equation says c x_t = 0
    with c != 0.  So the row space of the system is the direct sum of the
    unit rows e_t of the deleted variables and the core rows (0 on the
    deleted columns), and those unit rows and the core's RREF together are
    the RREF of the whole system (see nullspace_mod_p)."""
    dtype = mod_p_dtype(p)
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
        return Matrix(field_for(p), np.zeros((0, kept.size), dtype=dtype)), kept
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
    core = np.zeros((int(distinct.sum()), kept.size), dtype=dtype)
    core[(np.cumsum(distinct) - 1)[eq[on]], (np.cumsum(~deleted) - 1)[v[on]]] = c[on]
    return Matrix(field_for(p), core), kept


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    out = np.empty(a.size, dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def nullspace_mod_p(p: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray) -> List[list]:
    """mat_nullspace over GF(p) of the sparse system given as COO triples
    (see peel_mod_p), equal to the nullspace of the whole dense system byte
    for byte, from the elimination of its core alone.

    Each deleted variable t is an RREF pivot whose row is the unit row e_t,
    so no other RREF row and no kernel vector has a nonzero entry at t, and
    the free columns are the core's free columns.  The kernel vectors are
    the core's, with 0 put back at every deleted column."""
    core, kept = peel_mod_p(p, ncols, rows, cols, vals)
    kept = kept.tolist()
    out = []
    for vec in mat_nullspace(core):
        full = [0] * ncols
        for j, x in zip(kept, vec):
            full[j] = x
        out.append(full)
    return out


def _blocks(rows: Sequence[dict]) -> List[List[int]]:
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


def _dense(field: Field, rows: Sequence[dict], block: List[int]) -> List[list]:
    """The dense rows of M restricted to one block."""
    pos = {j: t for t, j in enumerate(block)}
    sub = [[field.zero] * len(block) for _ in block]
    for out, i in zip(sub, block):
        for j, x in rows[i].items():
            out[pos[j]] = x
    return sub


def _column_echelon(field: Field, sub: List[list]) -> Echelon:
    """The echelon of the column space of a dense block, column by column."""
    im = Echelon(field, len(sub))
    for col in zip(*sub):
        im.add(col)
    return im


def sparse_rank(field: Field, rows: Sequence[dict]) -> int:
    """Rank of a square matrix with sparse rows: the sum over its connected
    blocks of the rank of each block's columns."""
    return sum(len(_column_echelon(field, _dense(field, rows, block)))
               for block in _blocks(rows) if len(block) > 1 or rows[block[0]])


def kernel_mod_image(field: Field, rows: Sequence[dict]) -> Tuple[Echelon, List[list], List[list]]:
    """Ker M / Im M for a square M held as sparse rows, row m the dict
    {j: M[m][j]} of its nonzero entries (the caller checks M^2 = 0).

    Returns the echelon of the column space, the nullspace basis, and the
    complement rows: the kernel vectors reduced modulo the image and
    echelonized among themselves.  The image (from the columns) and the
    kernel (from the rows) come from two independent eliminations, so a
    caller comparing their dimensions checks rank-nullity.

    Each connected block gets these three eliminations through Echelon.add,
    dense in its own coordinates; an index whose row and column are zero
    needs none, its unit vector is its kernel vector and complement row.
    The rows lifted back and sorted by pivot (or free column) are the ones
    the whole matrix gives, byte for byte: the row space, the column space
    and the kernel are direct sums over the blocks, and an RREF is unique.
    """
    f = field
    n = len(rows)
    image, ker, comp = [], [], []  # (pivot or free column, block, row in block coordinates)
    for block in _blocks(rows):
        if len(block) == 1 and not rows[block[0]]:
            ker.append((block[0], block, [f.one]))
            comp.append((block[0], block, [f.one]))
            continue
        sub = _dense(f, rows, block)
        im = _column_echelon(f, sub)
        row_ech = Echelon(f, len(block))
        for row in sub:
            row_ech.add(row)
        block_ker = _nullspace(row_ech)
        comp_ech = Echelon(f, len(block))
        for _c, vec in block_ker:
            comp_ech.add(im.reduce(vec)[0])
        image += [(block[c], block, row) for c, row in zip(im.pivots, im.rows)]
        ker += [(block[c], block, vec) for c, vec in block_ker]
        comp += [(block[c], block, row) for c, row in zip(comp_ech.pivots, comp_ech.rows)]

    def lifted(part: list) -> List[list]:
        out = []
        for _c, block, row in sorted(part, key=lambda t: t[0]):
            vec = [f.zero] * n
            for j, x in zip(block, row):
                vec[j] = x
            out.append(vec)
        return out

    im = Echelon(f, n)
    im.pivots = sorted(c for c, _b, _r in image)
    im.rows = lifted(image)
    im.combos = [{} for _ in image]
    return im, lifted(ker), lifted(comp)
