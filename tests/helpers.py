"""Constructions that only the tests need: a basis change of a
superalgebra, a polynomial in the generator of K(a), the conversions
between elements and dense scalar lists, the dense-list Echelon that the
engine is tested against, the term-by-term bracket and square that the
accumulating ones are tested against, the transpose of a Matrix, the
two-step sl, psl and g^(1)/c through a checked quotient by an ideal, and
the dense references of the center, of the homology of a square-zero
matrix and of a module."""

from typing import List, Optional, Sequence, Tuple

from dslie.classical import alternating_parities, gl
from dslie.fields import Field, FunctionField, PrimeField, RationalField, UsageError
from dslie.linalg import Echelon, Matrix, mat_nullspace, zero_of
from dslie.superalgebra import GradedSpan, Superalgebra, el_addmul, el_scale


def el_from_dense(f: Field, vec: Sequence) -> dict:
    """The element of a dense scalar list: its nonzero entries."""
    zero = zero_of(f)
    return {i: x for i, x in enumerate(vec) if x != zero}


def el_to_dense(f: Field, u: dict, n: int) -> list:
    """The dense scalar list of length n of an element."""
    out = [f.zero] * n
    for k, c in u.items():
        out[k] = c
    return out


class DenseEchelon:
    """linalg.Echelon with dense scalar lists at its boundary, the reference
    of the differential test in test_linalg: a growing RREF basis with
    provenance tracking.

    Vectors are scalar lists.  reduce() returns the residual after
    elimination against the current basis together with the combination
    of previously *inserted* vectors that was subtracted; add() inserts
    the residual when it is nonzero.
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

    def copy(self) -> "DenseEchelon":
        """An echelon with the same rows, which add() can grow without
        changing this one (add replaces rows, never edits them)."""
        out = DenseEchelon(self.field, self.ncols, self.track)
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

    def extend(self, rows: Sequence[Sequence]) -> "DenseEchelon":
        """Insert a batch of untracked rows through add(); stops once the
        rank is full."""
        if self.track:
            raise ValueError("extend inserts untracked rows; use add() to track them")
        for row in rows:
            if len(self.rows) == self.ncols:
                break
            self.add(row)
        return self




def bracket_reference(g: Superalgebra, u: dict, v: dict) -> dict:
    """[u, v] one term at a time: el_addmul adds each product of a
    coefficient pair with a basis bracket to a copy of the partial sum."""
    f = g.field
    out: dict = {}
    for i, a in u.items():
        for j, b in v.items():
            w = bracket_basis(g, i, j)
            if w:
                out = el_addmul(f, out, f.mul(a, b), w)
    return out


def square_reference(g: Superalgebra, u: dict) -> dict:
    """s(u) at p = 2 one term at a time, as bracket_reference:
    s(sum c_i x_i) = sum c_i^2 s(x_i) + sum_{i<j} c_i c_j [x_i, x_j]."""
    f = g.field
    items = sorted(u.items())
    out: dict = {}
    for idx, (i, c) in enumerate(items):
        sq = (g.squares or {}).get(i)
        if sq:
            out = el_addmul(f, out, f.mul(c, c), sq)
        for (j, d) in items[idx + 1:]:
            w = g.brackets.get((i, j), {})
            if w:
                out = el_addmul(f, out, f.mul(c, d), w)
    return out


def transform_basis(g: Superalgebra, T: list) -> Superalgebra:
    """Pullback of the structure along an invertible parity-preserving map.

    New basis b'_a = sum_i T[i][a] b_i; T must be block diagonal with
    respect to parity.
    """
    f = g.field
    n = g.dim
    for i in range(n):
        for a in range(n):
            if not f.is_zero(T[i][a]) and g.parities[i] != g.parities[a]:
                raise ValueError("basis change must preserve parity")
    cols = [el_from_dense(f, [T[i][a] for i in range(n)]) for a in range(n)]
    return g.subquotient(cols, labels=[f"t{a}" for a in range(n)], weights=False)


def poly(f: FunctionField, coeffs) -> object:
    """sum_k coeffs[k] a^k in K(a), built with the field's own operations."""
    out, power = f.zero, f.one
    for c in coeffs:
        out = f.add(out, f.mul(f.from_int(c), power))
        power = f.mul(power, f.param())
    return out


def bracket_basis(g: Superalgebra, i: int, j: int) -> dict:
    """[b_i, b_j] read straight from the stored constants, the sign of
    super-anticommutativity applied for i > j (the library brackets two
    unit vectors with Superalgebra.bracket)."""
    if i < j:
        return g.brackets.get((i, j), {})
    if i > j:
        v = g.brackets.get((j, i))
        if not v:
            return {}
        f = g.field
        if f.p == 2:
            return dict(v)
        sign = f.one if (g.parities[i] and g.parities[j]) else f.neg(f.one)
        return el_scale(f, sign, v)
    if g.field.p != 2 and g.parities[i] == 1:
        return g.brackets.get((i, i), {})
    return {}


def center_equations_reference(g: Superalgebra) -> Matrix:
    """The center's equations as Field rows, one equation
    sum_i x_i [b_i, b_k]_m = 0 per nonzero (k, m) in increasing order."""
    rows = {}
    for (i, j) in g.brackets:
        for a, b in {(i, j), (j, i)}:
            for m, c in bracket_basis(g, a, b).items():
                rows.setdefault((b, m), {})[a] = c
    return Matrix(g.field, [rows[km] for km in sorted(rows)], ncols=g.dim)


def center_rows_reference(g: Superalgebra) -> list:
    """The center as mat_nullspace of center_equations_reference (the
    library's center_rows hands the stored constants to
    linalg.nullspace_coo, which peels them over GF(p) and QQ)."""
    return mat_nullspace(center_equations_reference(g))


def _in_graded_span(g: Superalgebra, span: GradedSpan, u) -> bool:
    """Whether each parity part of u lies in the span's part of that parity."""
    parts = ({k: c for k, c in u.items() if g.parities[k] == par} for par in (0, 1))
    return all(not part or not ech.reduce(part)[0]
               for part, ech in zip(parts, (span.even, span.odd)))


def quotient_by_ideal_reference(g: Superalgebra, ideal_rows: list) -> Superalgebra:
    """g modulo the span of ideal_rows, after checking that it is an ideal:
    every bracket of an ideal row with a basis vector, and at p = 2 every
    square of an odd ideal row, must stay in the span (ValueError
    otherwise).  The complement is spanned by the first basis vectors, in
    index order, that are independent of the ideal and of each other."""
    f = g.field
    n = g.dim
    span = GradedSpan(g)
    for r in ideal_rows:
        span.add_element(r)
    for u in span.all_rows():
        for k in range(n):
            if not _in_graded_span(g, span, g.bracket(u, {k: f.one})):
                raise ValueError(f"not an ideal: bracket with {g.labels[k]} leaves the span")
    if f.p == 2:
        for r in span.odd.rows:
            if not _in_graded_span(g, span, g.square(r)):
                raise ValueError("not an ideal: squaring leaves the span")
    ideal = Echelon(f, n)
    ideal.extend(span.all_rows())
    comp = ideal.copy().complete_with_units()
    return g.subquotient([{m: f.one} for m in comp], ideal,
                         labels=[g.labels[m] for m in comp], chevalley=True)


def sl_reference(a: int, b: int, p: int) -> Superalgebra:
    """sl(a|b) as the subalgebra of gl(a|b) spanned by the off-diagonal E_ij
    and the E_ii +- E_{i+1,i+1} of supertrace 0, put in RREF by a
    GradedSpan."""
    g = gl(a, b, p)
    f = g.field
    pos = alternating_parities(a, b)
    rows = []
    diag = {}
    for t, lab in enumerate(g.labels):
        i, j = lab[1:].split(",")
        if i != j:
            rows.append({t: f.one})
        else:
            diag[int(i) - 1] = t
    for i in range(a + b - 1):
        sgn = f.one if pos[i] != pos[i + 1] else f.neg(f.one)
        rows.append({diag[i]: f.one, diag[i + 1]: sgn})
    return g.subalgebra_from_rows(rows)


def psl_reference(a: int, b: int, p: int) -> Superalgebra:
    """sl(a|b) modulo the center it solves for, through the checked quotient."""
    s = sl_reference(a, b, p)
    center = s.center_rows()
    if not center:
        raise UsageError(f"psl({a}|{b}) undefined at p={p}: sl has trivial center")
    return quotient_by_ideal_reference(s, center)


def first_derived_mod_center_reference(g: Superalgebra) -> Superalgebra:
    """g^(1) modulo its center, through the checked quotient."""
    sub = g.subalgebra_from_rows(g.first_derived_span().all_rows())
    center = sub.center_rows()
    return quotient_by_ideal_reference(sub, center) if center else sub


def transpose(M: Matrix) -> Matrix:
    return Matrix(M.field, [{i: row[j] for i, row in enumerate(M.rows) if j in row}
                            for j in range(M.ncols)], ncols=M.nrows)


def dense_matrix(f: Field, rows: list, ncols: int) -> Matrix:
    """The Matrix of dense scalar rows of length ncols."""
    return Matrix(f, [el_from_dense(f, r) for r in rows], ncols=ncols)


def kernel_mod_image_reference(M: Matrix):
    """Ker M / Im M of a square M on the dense-list reference engine: the
    image built column by column, the kernel read off the RREF of the rows
    (1 at each free column, minus that column of each row at its pivot),
    and each kernel vector reduced by the image and inserted one at a time.
    Returns (image rows, image pivots, kernel, complement rows), the rows
    and vectors as elements."""
    f = M.field
    n = M.ncols
    dense = [el_to_dense(f, r, n) for r in M.rows]
    im, row_ech, comp = DenseEchelon(f, n), DenseEchelon(f, n), DenseEchelon(f, n)
    for j in range(n):
        im.add([row[j] for row in dense])
    for row in dense:
        row_ech.add(row)
    ker = []
    for c in range(n):
        if c not in row_ech.pivots:
            vec = {pc: f.neg(row[c]) for pc, row in zip(row_ech.pivots, row_ech.rows)
                   if not f.is_zero(row[c])}
            ker.append(dict(sorted({**vec, c: f.one}.items())))
    for vec in ker:
        comp.add(im.reduce(el_to_dense(f, vec, n))[0])
    return ([el_from_dense(f, r) for r in im.rows], im.pivots, ker,
            [el_from_dense(f, r) for r in comp.rows])


def dense_mat_mul(f, a: list, b: list) -> list:
    """Product of two square matrices held as dense rows."""
    n = len(a)
    out = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            c = a[i][k]
            if f.is_zero(c):
                continue
            for j in range(n):
                if not f.is_zero(b[k][j]):
                    out[i][j] = f.add(out[i][j], f.mul(c, b[k][j]))
    return out


def _dense_word_matrix(rep, word, positive: bool) -> list:
    """Dense matrix of a root vector on the module, from its word: a
    generator's matrix, the square of a node, or the supercommutator of a
    generator with a node."""
    f = rep.build.field
    nodes = rep.build.pos_nodes
    if word[0] == "g":
        acts = rep.e_act[word[1]] if positive else rep.f_act[word[1]]
        rows = [[f.zero] * rep.dim for _ in range(rep.dim)]
        for m, col in enumerate(acts):
            for t, c in col.items():
                rows[t][m] = c
        return rows
    if word[0] == "sq":
        z = _dense_word_matrix(rep, nodes[word[1]].word, positive)
        return dense_mat_mul(f, z, z)
    _, i, parent = word
    a = _dense_word_matrix(rep, ("g", i), positive)
    b = _dense_word_matrix(rep, nodes[parent].word, positive)
    ab, ba = dense_mat_mul(f, a, b), dense_mat_mul(f, b, a)
    odd = f.p != 2 and rep.build.spec.parities[i] and nodes[parent].parity
    sgn = f.neg(f.one) if odd else f.one
    return [[f.sub(x, f.mul(sgn, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def dense_element_matrix(rep, el) -> list:
    """Dense rho_x, each root vector's matrix multiplied out from its word;
    the Cartan and grading elements act diagonally."""
    b = rep.build
    f = b.field
    nh = b.n + b.n_grading
    npos = len(b.pos_roots)
    out = [[f.zero] * rep.dim for _ in range(rep.dim)]
    for k, c in el.items():
        if k < nh:
            mk = [el_to_dense(f, r, rep.dim) for r in rep.action_matrix(k)]
        elif k < nh + npos:
            mk = _dense_word_matrix(rep, b.pos_nodes[b.pos_order[k - nh]].word, True)
        else:
            mk = _dense_word_matrix(rep, b.pos_nodes[b.pos_order[k - nh - npos]].word, False)
        out = [[f.add(x, f.mul(c, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(out, mk)]
    return out


def module_homology_reference(rep, el):
    """(rank, sdim_mx, basis_rows) of Ker rho_x / Im rho_x from the dense
    rho_x, its dense square and the dense-list Ker/Im."""
    f = rep.build.field
    R = dense_element_matrix(rep, el)
    if any(not f.is_zero(x) for row in dense_mat_mul(f, R, R) for x in row):
        raise ValueError("rho_x squared is nonzero on the module")
    im, _pivots, _ker, comp = kernel_mod_image_reference(dense_matrix(f, R, rep.dim))
    ev = od = 0
    for r in comp:
        ps = {rep.parities[k] for k in r}
        if ps == {0}:
            ev += 1
        elif ps == {1}:
            od += 1
        else:
            raise ValueError("module homology not parity-graded")
    return len(im), (ev, od), comp
