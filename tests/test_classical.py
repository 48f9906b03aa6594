"""Classical matrix families as references."""

import random

import pytest

from dslie.classical import abelian, alternating_parities, gl, hei_odd, osp, psl, sl
from dslie.superalgebra import el_addmul


def test_dimensions():
    assert gl(2, 3, 0).sdim == (13, 12)
    assert sl(2, 3, 0).sdim == (12, 12)
    assert psl(2, 2, 0).sdim == (6, 8)
    assert psl(5, 0, 5).sdim == (23, 0)
    assert osp(4, 2, 5).sdim == (9, 8)
    assert hei_odd(2).sdim == (1, 2)
    assert abelian(3, 4, 2).sdim == (3, 4)


def test_psl_requires_singular_center():
    with pytest.raises(ValueError):
        psl(2, 3, 5)  # identity not supertraceless: no center to kill


def test_alternating_format():
    assert alternating_parities(2, 3) == [0, 1, 0, 1, 1]
    assert alternating_parities(3, 1) == [0, 1, 0, 0]
    g = gl(2, 2, 0)
    # simple root vectors E_{i,i+1} alternate parity
    pars = [g.parities[g.labels.index(f"E{i},{i+1}")] for i in (1, 2, 3)]
    assert pars == [1, 1, 1]  # all odd in the (0,1,0,1) format


def test_gl_bracket_is_supercommutator():
    p = 5
    g = gl(2, 2, p)
    f = g.field
    n = 4
    pos = alternating_parities(2, 2)
    rng = random.Random(3)

    def to_matrix(el):
        M = [[0] * n for _ in range(n)]
        for k, c in el.items():
            i, j = (int(t) - 1 for t in g.labels[k][1:].split(","))
            M[i][j] = int(c)
        return M

    for _ in range(10):
        # random parity-homogeneous elements
        par = rng.randrange(2)
        idxs = [k for k in range(g.dim) if g.parities[k] == par]
        u = {k: f.from_int(rng.randrange(1, p)) for k in rng.sample(idxs, 3)}
        v = {k: f.from_int(rng.randrange(1, p)) for k in rng.sample(idxs, 3)}
        w = g.bracket(u, v)
        A, B = to_matrix(u), to_matrix(v)
        AB = [[sum(A[i][t] * B[t][j] for t in range(n)) % p for j in range(n)]
              for i in range(n)]
        BA = [[sum(B[i][t] * A[t][j] for t in range(n)) % p for j in range(n)]
              for i in range(n)]
        sgn = -1 if par == 1 else 1
        want = [[(AB[i][j] - sgn * BA[i][j]) % p for j in range(n)] for i in range(n)]
        assert to_matrix(w) == want


def test_first_derived_mod_center_matches_psl():
    for (a, b, p) in [(2, 2, 0), (2, 2, 3), (1, 1, 2), (3, 3, 3)]:
        g = gl(a, b, p)
        h = g.first_derived_mod_center()
        q = psl(a, b, p)
        assert h.fingerprint() == q.fingerprint(), (a, b, p)


def test_quotient_reduces_dim_by_ideal_dim():
    s = sl(2, 2, 0)
    center = s.center_rows()
    q = s.quotient_by_ideal(center)
    assert q.dim == s.dim - len(center)
