"""Constructions that only the tests need: a basis change of a
superalgebra, a polynomial in the generator of K(a), the transpose of a
Matrix, the two-step sl, psl and g^(1)/c through a checked quotient by an
ideal, and the dense references of the center, of the homology of a
square-zero matrix and of a module."""

from dslie.classical import alternating_parities, gl
from dslie.fields import FunctionField, UsageError
from dslie.linalg import Echelon, Matrix, mat_nullspace, rref
from dslie.superalgebra import GradedSpan, Superalgebra, el_from_dense, el_to_dense


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
    cols = [[T[i][a] for i in range(n)] for a in range(n)]
    return g.subquotient(cols, labels=[f"t{a}" for a in range(n)], weights=False)


def poly(f: FunctionField, coeffs) -> object:
    """sum_k coeffs[k] a^k in K(a), built with the field's own operations."""
    out, power = f.zero, f.one
    for c in coeffs:
        out = f.add(out, f.mul(f.from_int(c), power))
        power = f.mul(power, f.param())
    return out


def center_rows_reference(g: Superalgebra) -> list:
    """The center as mat_nullspace of dense Field rows, one equation
    sum_i x_i [b_i, b_k]_m = 0 per nonzero (k, m) in increasing order (the
    library's center_rows hands the stored constants to
    linalg.nullspace_mod_p over GF(p))."""
    f = g.field
    n = g.dim
    rows = {}
    for a, b, w in g.ordered_brackets():
        for m, c in w.items():
            rows.setdefault((b, m), [f.zero] * n)[a] = c
    return mat_nullspace(Matrix(f, [rows[km] for km in sorted(rows)], ncols=n))


def _in_graded_span(g: Superalgebra, span: GradedSpan, u) -> bool:
    """Whether each parity part of u lies in the span's part of that parity."""
    parts = ({k: c for k, c in u.items() if g.parities[k] == par} for par in (0, 1))
    return all(not part or ech.contains(el_to_dense(g.field, part, g.dim))
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
        span.add_dense(r)
    for r in span.all_rows():
        u = el_from_dense(f, r)
        for k in range(n):
            if not _in_graded_span(g, span, g.bracket(u, {k: f.one})):
                raise ValueError(f"not an ideal: bracket with {g.labels[k]} leaves the span")
    if f.p == 2:
        for r in span.odd.rows:
            if not _in_graded_span(g, span, g.square(el_from_dense(f, r))):
                raise ValueError("not an ideal: squaring leaves the span")
    ideal = Echelon(f, n)
    ideal.extend(span.all_rows())
    comp = ideal.copy().complete_with_units()
    return g.subquotient([el_to_dense(f, {m: f.one}, n) for m in comp], ideal,
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
            rows.append(el_to_dense(f, {t: f.one}, g.dim))
        else:
            diag[int(i) - 1] = t
    for i in range(a + b - 1):
        sgn = f.one if pos[i] != pos[i + 1] else f.neg(f.one)
        rows.append(el_to_dense(f, {diag[i]: f.one, diag[i + 1]: sgn}, g.dim))
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
    return Matrix(M.field, [[M.rows[i][j] for i in range(M.nrows)] for j in range(M.ncols)],
                  ncols=M.nrows)


def sparse_rows(M: Matrix) -> list:
    """The rows of a dense square M as dicts of their nonzero entries, the
    format of ad_matrix, element_matrix and kernel_mod_image."""
    return [el_from_dense(M.field, row) for row in M.rows]


def dense_matrix(f, rows: list) -> Matrix:
    """The dense Matrix of a square matrix held as sparse rows."""
    return Matrix(f, [el_to_dense(f, r, len(rows)) for r in rows], ncols=len(rows))


def kernel_mod_image_unsplit(M: Matrix):
    """Ker M / Im M from three eliminations of the whole dense matrix: the
    image, the nullspace, and the kernel vectors reduced by the image
    echelon (kernel_mod_image splits M into its connected blocks)."""
    f = M.field
    im = Echelon(f, M.nrows)
    im.rows, im.pivots = rref(transpose(M))
    ker = mat_nullspace(M)
    comp, _ = rref(Matrix(f, [im.reduce(vec)[0] for vec in ker], ncols=M.ncols))
    return im, ker, comp


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
    nodes = rep.build.pos_nodes if positive else rep.build.neg_nodes
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
            mk = _dense_word_matrix(rep, b.neg_nodes[b.neg_order[k - nh - npos]].word, False)
        out = [[f.add(x, f.mul(c, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(out, mk)]
    return out


def module_homology_reference(rep, el):
    """(rank, sdim_mx, basis_rows) of Ker rho_x / Im rho_x from the dense
    rho_x, its dense square and the unsplit Ker/Im."""
    f = rep.build.field
    dm = rep.dim
    R = dense_element_matrix(rep, el)
    if any(not f.is_zero(x) for row in dense_mat_mul(f, R, R) for x in row):
        raise ValueError("rho_x squared is nonzero on the module")
    im, _ker, comp = kernel_mod_image_unsplit(Matrix(f, R, ncols=dm))
    ev = od = 0
    for r in comp:
        ps = {rep.parities[k] for k in range(dm) if not f.is_zero(r[k])}
        if ps == {0}:
            ev += 1
        elif ps == {1}:
            od += 1
        else:
            raise ValueError("module homology not parity-graded")
    return len(im), (ev, od), comp
