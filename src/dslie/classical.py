"""Matrix-realized reference superalgebras: gl, sl, psl, osp, hei(0|2), abelian.

gl(a|b) uses the alternating parity format, so that the elementary
matrices E_{i,i+1} are simple root vectors of alternating parity; this
is the format in which the chain elements x_1, x_1+x_3, ... of the
summary tables live.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .fields import UsageError, field_for
from .linalg import Echelon, Matrix, mat_nullspace
from .superalgebra import Element, Superalgebra


def alternating_parities(a: int, b: int) -> List[int]:
    """Position parities (0 even, 1 odd): pairs first, then the excess block."""
    out = []
    for _ in range(min(a, b)):
        out += [0, 1]
    out += [1] * (b - a) if b > a else [0] * (a - b)
    return out


def _matrix_superalgebra(pos: List[int], p: int) -> Tuple[Superalgebra, Dict]:
    """gl on a parity-position vector; returns the algebra and the E-index map."""
    fld = field_for(p)
    size = len(pos)
    idx = {}
    labels = []
    parities = []
    weights = []
    for i in range(size):
        for j in range(size):
            idx[(i, j)] = len(labels)
            labels.append(f"E{i+1},{j+1}")
            parities.append((pos[i] + pos[j]) % 2)
            w = [0] * size
            w[i] += 1
            w[j] -= 1
            weights.append(tuple(w))
    one = fld.one
    brackets: Dict[Tuple[int, int], Element] = {}

    def put(key, target, coeff):
        if fld.is_zero(coeff):
            return
        d = brackets.setdefault(key, {})
        c = fld.add(d.get(target, fld.zero), coeff)
        if fld.is_zero(c):
            d.pop(target, None)
            if not d:
                brackets.pop(key, None)
        else:
            d[target] = c

    for (i, j), u in sorted(idx.items(), key=lambda kv: kv[1]):
        pu = parities[u]
        for (k, l), v in sorted(idx.items(), key=lambda kv: kv[1]):
            if v < u:
                continue
            if v == u and (p == 2 or pu == 0):
                continue
            pv = parities[v]
            # [E_ij, E_kl] = d_jk E_il - (-1)^{pu pv} d_li E_kj
            if j == k:
                put((u, v), idx[(i, l)], one)
            if l == i:
                sgn = fld.neg(one) if (p != 2 and pu and pv) else one
                put((u, v), idx[(k, j)], fld.neg(sgn))
    squares = {} if p == 2 else None  # all E_ij (i != j) square to zero
    return Superalgebra(fld, labels, parities, brackets, squares, weights), idx


def gl(a: int, b: int, p: int) -> Superalgebra:
    """gl(a|b) over GF(p) (QQ for p = 0), alternating format."""
    g, _ = _matrix_superalgebra(alternating_parities(a, b), p)
    return g


def _sl_rows(g: Superalgebra, a: int, b: int) -> Tuple[List[Element], List[str]]:
    """sl(a|b)'s basis inside g = gl(a|b), as rows and their labels: the unit
    rows E_ij (i != j) and, for i < n, E_ii + s_i E_nn with s_i = 1 when
    positions i and n differ in parity and -1 when they agree (supertrace 0).
    No other row touches E_ii or E_nn, so the rows are already in RREF; they
    come even before odd, each group by pivot, and are labelled by the pivot."""
    fld = g.field
    n = a + b
    pos = alternating_parities(a, b)
    last = n * n - 1  # index of E_nn
    rows = {}
    for t in range(last):
        vec = {t: fld.one}
        i, j = divmod(t, n)
        if i == j:
            vec[last] = fld.one if pos[i] != pos[-1] else fld.neg(fld.one)
        rows[g.parities[t], t] = vec
    keys = sorted(rows)
    return [rows[k] for k in keys], [g.labels[t] for _, t in keys]


def sl(a: int, b: int, p: int) -> Superalgebra:
    """Supertraceless matrices inside gl(a|b)."""
    g = gl(a, b, p)
    rows, labels = _sl_rows(g, a, b)
    return g.subquotient(rows, labels=labels, chevalley=True)


def psl(a: int, b: int, p: int) -> Superalgebra:
    """sl(a|b) modulo its center, as one subquotient of gl(a|b).

    The center of sl is nonzero exactly when a + b >= 2 and a = b mod p
    (a = b at p = 0), and is then spanned by the identity, the sum of sl's
    n - 1 diagonal rows.  A complement of it taken by unit vectors in sl's
    basis order drops the last of them, the row of E_{n-1,n-1}.
    """
    n = a + b
    if n < 2 or ((a - b) % p if p else a - b):
        raise UsageError(f"psl({a}|{b}) undefined at p={p}: sl has trivial center")
    g = gl(a, b, p)
    fld = g.field
    rows, labels = _sl_rows(g, a, b)
    drop = labels.index(f"E{n - 1},{n - 1}")
    identity = Echelon(fld, g.dim)
    identity.add({i * n + i: fld.one for i in range(n)})
    del rows[drop], labels[drop]
    return g.subquotient(rows, identity, labels=labels, chevalley=True)


def hei_odd(p: int) -> Superalgebra:
    """hei(0|2) = sl(1|1): one even center, two odd generators pairing onto it."""
    fld = field_for(p)
    return Superalgebra(fld, ["c", "o1", "o2"], [0, 1, 1], {(1, 2): {0: fld.one}},
                        {} if p == 2 else None, None)


def abelian(a: int, b: int, p: int) -> Superalgebra:
    fld = field_for(p)
    labels = [f"e{i+1}" for i in range(a)] + [f"o{i+1}" for i in range(b)]
    return Superalgebra(fld, labels, [0] * a + [1] * b, {}, {} if p == 2 else None, None)


def osp(m: int, two_n: int, p: int) -> Superalgebra:
    """osp(m|2n), p != 2: X with st(X) G + G X = 0 for the standard even form
    (antidiagonal symmetric on the even block, standard symplectic on the odd
    block); st(X)_{ij} = (-1)^{p_j (p_i + p_j)} X_{ji} in block format."""
    if two_n % 2:
        raise ValueError("osp(m|2n) needs an even odd-dimension")
    if p == 2:
        raise ValueError("osp in the standard symmetric format needs p != 2")
    fld = field_for(p)
    size = m + two_n
    pos = [0] * m + [1] * two_n
    big, idx = _matrix_superalgebra(pos, p)
    one = fld.one
    G = [[fld.zero] * size for _ in range(size)]
    for i in range(m):
        G[i][m - 1 - i] = one
    half = two_n // 2
    for i in range(half):
        G[m + i][m + half + i] = one
        G[m + half + i][m + i] = fld.neg(one)
    eqs = []
    for r in range(size):
        for c in range(size):
            row = {}
            for (i, j), u in idx.items():
                coeff = fld.zero
                if j == c and not fld.is_zero(G[r][i]):
                    coeff = fld.add(coeff, G[r][i])  # (G X)_{rc}
                if j == r and not fld.is_zero(G[i][c]):
                    # (st(X) G)_{rc} picks X_{i r} with sign (-1)^{p_r (p_r + p_i)}
                    sgn = fld.neg(one) if (pos[r] and not pos[i]) else one
                    coeff = fld.add(coeff, fld.mul(sgn, G[i][c]))
                if not fld.is_zero(coeff):
                    row[u] = coeff
            if row:
                eqs.append(row)
    sol = mat_nullspace(Matrix(fld, eqs, ncols=big.dim))
    return big.subalgebra_from_rows(sol)


def parse_key(key: str) -> Optional[Tuple[str, int, int]]:
    """("gl", 2, 4) for "gl(2|4)" and ("sl", 3, 0) for "sl(3)"; None for any
    key outside gl/sl/psl."""
    m = re.fullmatch(r"(gl|sl|psl)\((\d+)(?:\|(\d+))?\)", key)
    return (m.group(1), int(m.group(2)), int(m.group(3) or 0)) if m else None


def classical(family: str, a: int, b: int, p: int) -> Superalgebra:
    """gl, sl or psl(a|b) by the family name parse_key returns."""
    return {"gl": gl, "sl": sl, "psl": psl}[family](a, b, p)
