"""Exact linear algebra over the fields in fields.py.

One elimination engine, the incremental Echelon: a growing basis kept in
reduced row echelon form, with optional provenance of every row.  Its
rows are plain lists of canonical scalars and its row updates use one of
two kernels, chosen by the field:

  * GF(p), p = 2 included -- inline integer arithmetic mod p
  * QQ, K(a)              -- the Field's own add/mul/inv

extend() inserts a batch of untracked rows.  Over a prime field it runs
one vectorized numpy elimination over the whole batch (the tall systems
of invariant_forms need it), in int16 when p^2 fits and int64 otherwise
(mod_p_dtype); over QQ and K(a) it inserts the rows one by one.  The
vectorized elimination drops the all-zero rows and visits only the columns
that are nonzero at the start, since no row operation fills an all-zero
column.  rref, mat_rank and mat_nullspace are thin wrappers over it.

Over a prime field a Matrix may hold its rows as an integer ndarray, which
reaches the elimination without a round trip through Python lists: the
invariance equations (Superalgebra._form_equations_mod_p) and every
ad-matrix (Superalgebra.ad_matrix) are built that way, and
kernel_mod_image hands such a matrix to each of its eliminations as an
array.

Pivoting is deterministic everywhere: columns left to right, and the
RREF of a span is unique, so every insertion order gives the same rows.
Nullspace bases assign 1 to each free column in increasing order, so
repeated runs are byte-identical.

kernel_mod_image builds on Echelon the Ker M / Im M complement that
every homology (of ad_x on g, of rho_x on a module) is read from.  Over QQ
and K(a) it eliminates each connected block of M on its own: ad_x and
rho_x are sparse, and their supports split into many small blocks (rho_x
on the 32-dim bgl(4;alpha) module has 13-19 blocks of at most 4 indices).
Ker and Im are direct sums over the blocks and an RREF is unique, so the
output is the one the whole matrix gives, byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import Field, PrimeField, RationalField


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

    Over a prime field the rows may also be a 2-D integer ndarray with
    entries in [0, p); it is kept as is, not copied, and read only by rref,
    mat_rank, mat_nullspace, kernel_mod_image and transpose (a view)."""

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

    def transpose(self) -> "Matrix":
        if isinstance(self.rows, np.ndarray):
            return Matrix(self.field, self.rows.T)
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

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
    f = M.field
    n = M.ncols
    ech = Echelon(f, n).extend(M.rows)
    pivset = set(ech.pivots)
    basis = []
    for fc in range(n):
        if fc in pivset:
            continue
        vec = [f.zero] * n
        vec[fc] = f.one
        for row, pc in zip(ech.rows, ech.pivots):
            vec[pc] = f.neg(row[fc])
        basis.append(vec)
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


def _blocks(M: Matrix) -> List[List[int]]:
    """The connected blocks of a square M: the components of the graph on
    the indices that joins i and j when M[i][j] != 0 (union-find), each in
    increasing order.  Permuting rows and columns alike by the blocks puts
    M in block-diagonal form."""
    root = list(range(M.ncols))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    zero = zero_of(M.field)
    for i, row in enumerate(M.rows):
        for j, x in enumerate(row):
            if x != zero:
                a, b = find(i), find(j)
                if a != b:
                    root[max(a, b)] = min(a, b)
    blocks: dict = {}
    for i in range(M.ncols):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _kernel_mod_image_blocks(M: Matrix) -> Tuple[Echelon, List[list], List[list]]:
    """The Field path of kernel_mod_image, block by block: each connected
    block of M gets the image, nullspace and complement eliminations of the
    whole matrix, and its rows are lifted back to n coordinates."""
    f = M.field
    n = M.ncols
    zero = zero_of(f)
    image, ker, comp = [], [], []  # (pivot or free column, row in n coordinates)
    for block in _blocks(M):
        if len(block) == 1 and M.rows[block[0]][block[0]] == zero:
            # a zero row and column: its unit vector spans kernel and complement
            unit = [f.zero] * n
            unit[block[0]] = f.one
            ker.append((block[0], unit))
            comp.append((block[0], list(unit)))
            continue

        def lift(row: list) -> list:
            out = [f.zero] * n
            for j, x in zip(block, row):
                out[j] = x
            return out

        sub = Matrix(f, [[M.rows[i][j] for j in block] for i in block], ncols=len(block))
        im = Echelon(f, len(block))
        im.rows, im.pivots = rref(sub.transpose())
        block_ker = mat_nullspace(sub)
        rows, pivots = rref(Matrix(f, [im.reduce(vec)[0] for vec in block_ker],
                                   ncols=len(block)))
        image += [(block[c], lift(row)) for row, c in zip(im.rows, im.pivots)]
        comp += [(block[c], lift(row)) for row, c in zip(rows, pivots)]
        # a nullspace vector's last nonzero entry is its free column: its
        # other entries sit on pivots, which lie left of the free columns of
        # their rows
        ker += [(max(j for j, x in enumerate(vec) if x != zero), vec)
                for vec in map(lift, block_ker)]
    for part in (image, ker, comp):
        part.sort(key=lambda t: t[0])
    im = Echelon(f, M.nrows)
    im.pivots = [c for c, _ in image]
    im.rows = [row for _, row in image]
    im.combos = [{} for _ in image]
    return im, [vec for _, vec in ker], [row for _, row in comp]


def kernel_mod_image(M: Matrix) -> Tuple[Echelon, List[list], List[list]]:
    """Ker M / Im M for a square M (the caller checks M^2 = 0).

    Returns the echelon of the column space, the nullspace basis, and the
    complement rows: the kernel vectors reduced modulo the image and
    echelonized among themselves, so they vanish on the image pivots.  The
    image (from the columns) and the kernel (from the rows) come from two
    independent eliminations, so a caller comparing their dimensions checks
    rank-nullity.

    Over GF(p) the matrix is an integer array throughout (a list-row Matrix
    is converted once): the kernel basis is read off the row RREF and the
    kernel block is reduced modulo the image in one array operation.

    Over QQ and K(a) M is split into its connected blocks (_blocks), and
    each block gets its own three eliminations: the image, the nullspace
    (mat_nullspace), and the kernel vectors reduced by the block's image
    echelon.  An index whose row and column are zero is a block of its own
    whose unit vector is both its kernel vector and its complement row, with
    no elimination.  The lifted rows are sorted by pivot, the kernel vectors
    by free column, and the result is the one the whole matrix gives, byte
    for byte: a row of M in a block is supported on the block, so the row
    space, the column space and the kernel are direct sums over the blocks;
    an RREF is unique, and the nullspace vector of a free column c lies in
    c's block.  Per-block numpy calls would cost the GF(p) path more than
    they save, so it eliminates the whole array.

    Every elimination goes through rref or mat_nullspace, and every scalar
    returned is canonical (a Python int over GF(p)).
    """
    f = M.field
    n = M.ncols
    p = f.p if isinstance(f, PrimeField) else 0
    if not p:
        return _kernel_mod_image_blocks(M)
    if not isinstance(M.rows, np.ndarray):
        M = Matrix(f, np.array(M.rows, dtype=np.int64).reshape(M.nrows, n) % p)
    im = Echelon(f, M.nrows)
    im.rows, im.pivots = rref(M.transpose())
    im.combos = [{} for _ in im.rows]
    rows, pivots = rref(M)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    ker = np.zeros((free.size, n), dtype=np.int64)
    ker[np.arange(free.size), free] = 1
    ker[:, pivots] = -np.array(rows, dtype=np.int64).reshape(-1, n)[:, free].T % p
    # ker - coef @ image, summed over the nonzero coefficients only (kernel
    # rows are sparse), each product reduced mod p first
    image = np.array(im.rows, dtype=np.int64).reshape(-1, n)
    coef = ker[:, im.pivots]
    at, t = coef.nonzero()
    red = ker.copy()
    np.subtract.at(red, at, coef[at, t][:, None] * image[t] % p)
    comp, _ = rref(Matrix(f, red % p))
    return im, ker.tolist(), comp
