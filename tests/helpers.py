"""Constructions that only the tests need: a basis change of a
superalgebra, a polynomial in the generator of K(a), the transpose of a
Matrix, and the dense references of the homology of a square-zero matrix
and of a module."""

from dslie.fields import FunctionField
from dslie.linalg import Echelon, Matrix, mat_nullspace, rref
from dslie.superalgebra import Superalgebra, el_from_dense, el_to_dense


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
