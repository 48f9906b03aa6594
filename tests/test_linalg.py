"""Rank / nullspace over every field kind, rank-nullity, QQ vs GF(p) ranks,
and the batch (numpy) against the incremental (list) elimination."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie.fields import PrimeField, field_for
from dslie.linalg import Echelon, Matrix, mat_nullspace, mat_rank, rref


def _mat(field, int_rows, ncols=None):
    return Matrix(field, [[field.from_int(a) for a in row] for row in int_rows], ncols=ncols)


def _dot(f, row, v):
    acc = f.zero
    for a, x in zip(row, v):
        acc = f.add(acc, f.mul(a, x))
    return acc


def test_rank_identity_gf2():
    f = field_for(2)
    m = _mat(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert mat_rank(m) == 3


def test_rank_brj_matrix_gf5():
    f = field_for(5)
    m = _mat(f, [[0, -1], [-2, 1]])
    assert mat_rank(m) == 2  # det = -2, a unit mod 5


def test_rank_zero_matrix():
    f = field_for(7)
    m = _mat(f, [[0] * 7 for _ in range(4)])
    assert mat_rank(m) == 0


def test_nullspace_identity_empty():
    f = field_for(3)
    assert mat_nullspace(_mat(f, [[1, 0], [0, 1]])) == []


def test_nullspace_zero_full():
    f = field_for(3)
    basis = mat_nullspace(_mat(f, [[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_nullspace_gf2_ones():
    f = field_for(2)
    basis = mat_nullspace(_mat(f, [[1, 1], [1, 1]]))
    assert basis == [[1, 1]]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_rank_nullity_random(p):
    f = field_for(p)
    rng = random.Random(7 + p)
    for _ in range(12):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        M = _mat(f, rows)
        assert mat_rank(M) + len(mat_nullspace(M)) == n
        for v in mat_nullspace(M):
            assert all(f.is_zero(_dot(f, row, v)) for row in M.rows)


def test_rank_q_vs_gfp_when_pivots_are_units():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        q = field_for(0)
        rq = mat_rank(_mat(q, rows))
        for p in (5, 7, 11):
            rp = mat_rank(_mat(field_for(p), rows))
            assert rp <= rq
        # a prime large enough divides no nonzero minor of this size
        assert mat_rank(_mat(field_for(101), rows)) == rq


def test_parametric_rank():
    f = field_for(2, parametric=True)
    a = f.param()
    M = Matrix(f, [[f.one, a], [a, f.mul(a, a)]])
    assert mat_rank(M) == 1
    M2 = Matrix(f, [[f.one, a], [a, f.one]])  # det = 1 + a^2 = (1+a)^2 != 0
    assert mat_rank(M2) == 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=5),
       st.sampled_from([2, 3, 5]))
def test_echelon_matches_rank(rows, p):
    f = field_for(p)
    M = _mat(f, rows)
    ech = Echelon(f, 3, track=True)
    for i, row in enumerate(M.rows):
        ech.add(row, vid=i)
    assert len(ech) == mat_rank(M)
    # every original row reduces to zero against the completed echelon
    for row in M.rows:
        res, combo = ech.reduce(row)
        assert all(f.is_zero(x) for x in res)
        # and the tracked combination reproduces the row
        recon = [f.zero] * 3
        for vid, c in combo.items():
            recon = [f.add(x, f.mul(c, y)) for x, y in zip(recon, M.rows[vid])]
        assert recon == row


# the primes 181, 191 and 2147483629 put products of two residues next to
# the bounds of the batch kernel's dtypes (int16 up to 181, then int64)
ENGINE_FIELDS = [(2, False), (3, False), (5, False), (181, False), (191, False),
                 (2147483629, False), (0, False), (2, True)]


def _entry(f, c0, c1):
    """c0 + c1*a over GF(2)(a); c0 alone over the other fields."""
    if f.spec.parametric:
        return f.add(f.from_int(c0), f.param(c1))
    return f.from_int(c0)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("p,parametric", ENGINE_FIELDS)
@given(data=st.data())
def test_batch_rref_matches_incremental(p, parametric, data):
    f = field_for(p, parametric)
    big = 2**40 if p > 5 else 3
    n = data.draw(st.integers(1, 6), label="ncols")
    cells = st.tuples(st.integers(-big, big), st.integers(-1, 1))
    grid = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), max_size=7), label="M")
    M = Matrix(f, [[_entry(f, c0, c1) for c0, c1 in row] for row in grid], ncols=n)
    rows, pivots = rref(M)
    order = data.draw(st.permutations(range(M.nrows)), label="order")
    for seq in (M.rows, [M.rows[i] for i in order]):
        ech = Echelon(f, n)
        for row in seq:
            ech.add(row)
        assert (ech.rows, ech.pivots) == (rows, pivots)  # the RREF is unique
    # a batch on top of rows inserted one by one; over a prime field the
    # batch may also be an integer array, which gives the same echelon
    cut = data.draw(st.integers(0, M.nrows), label="cut")
    batches = [M.rows[cut:]]
    if isinstance(f, PrimeField):
        arr = np.array(M.rows, dtype=np.int64).reshape(-1, n)
        assert rref(Matrix(f, arr)) == (rows, pivots)
        batches.append(arr[cut:])
    for batch in batches:
        ech = Echelon(f, n)
        for row in M.rows[:cut]:
            ech.add(row)
        assert (ech.extend(batch).rows, ech.pivots) == (rows, pivots)
    null = mat_nullspace(M)
    assert len(pivots) + len(null) == n == mat_rank(M) + len(null)
    for v in null:
        assert all(f.is_zero(_dot(f, row, v)) for row in M.rows)
