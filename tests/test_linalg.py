"""Rank / nullspace over every field kind, rank-nullity, QQ vs GF(p) ranks,
a batch through extend() against the same rows added one by one (and its
stop at full rank), the Echelon against the dense-list reference on small
filled rows and on wide sparse ones (every element it returns is clean,
its keys in increasing order), its column index against the one
recomputed from its rows, the COO nullspace (peeled over GF(p) and
exactly over ZZ, whole over K(a) and beyond int64) against the dense one
on every field, and the homology matrices
(ad_matrix, kernel_mod_image, adjoint_rank) against their dense
references: kernel_mod_image on random square-zero matrices, on the
empty and the zero matrix, on permuted block-diagonal ones and on ad_x
of catalog algebras, and ad_matrix, which visits each basis vector's
bracket partners, against the probe of every j (helpers) on every
catalog build and on gl, sl and psl."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslie.cartan import symmetrize
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import classical, parse_key
from dslie.ds import (adjoint_rank, ds_homology, is_homological, isotropic_orthogonal_sets,
                      single_root_candidates)
from dslie.fields import PrimeField, field_for
from dslie import linalg
from dslie.linalg import (Echelon, Matrix, array_ops, kernel_mod_image, mat_nullspace, mat_rank,
                          nullspace_coo, peel_mod_p, rref, sum_by_key)
from dslie.superalgebra import el_sum
from dslie.tables import chain_element
from helpers import (DenseEchelon, ad_matrix_reference, dense_matrix, el_add, el_addmul,
                     el_from_dense, el_to_dense, kernel_mod_image_reference)
from test_subquotient import _p2_heisenberg


def _mat(field, int_rows):
    return dense_matrix(field, [[field.from_int(a) for a in row] for row in int_rows],
                        len(int_rows[0]))


def _dot(f, row, v):
    """The product of two elements taken as vectors."""
    acc = f.zero
    for j, a in row.items():
        if j in v:
            acc = f.add(acc, f.mul(a, v[j]))
    return acc


def _check_elements(f, els, ncols):
    """Every element the engine returns stores no zero, only indices in
    [0, ncols), and its keys in increasing order."""
    for u in els:
        assert all(0 <= j < ncols for j in u), u
        assert not any(f.is_zero(x) for x in u.values()), u
        assert list(u) == sorted(u), u


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
    assert basis == [{0: 1, 1: 1}]


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
    M = dense_matrix(f, [[f.one, a], [a, f.mul(a, a)]], 2)
    assert mat_rank(M) == 1
    M2 = dense_matrix(f, [[f.one, a], [a, f.one]], 2)  # det = 1 + a^2 = (1+a)^2 != 0
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
        assert res == {}
        # and the tracked combination reproduces the row
        recon = {}
        for vid, c in combo.items():
            recon = el_addmul(f, recon, c, M.rows[vid])
        assert recon == row


# prime fields from GF(2) up to the forms' first modulus 2147483629, then QQ
# and GF(2)(a)
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
    M = dense_matrix(f, [[_entry(f, c0, c1) for c0, c1 in row] for row in grid], n)
    rows, pivots = rref(M)
    _check_elements(f, rows, n)
    order = data.draw(st.permutations(range(M.nrows)), label="order")
    for seq in (M.rows, [M.rows[i] for i in order]):
        ech = Echelon(f, n)
        for row in seq:
            ech.add(row)
        assert (ech.rows, ech.pivots) == (rows, pivots)  # the RREF is unique
    # a batch on top of rows inserted one by one
    cut = data.draw(st.integers(0, M.nrows), label="cut")
    ech = Echelon(f, n)
    for row in M.rows[:cut]:
        ech.add(row)
    assert (ech.extend(M.rows[cut:]).rows, ech.pivots) == (rows, pivots)
    null = mat_nullspace(M)
    _check_elements(f, null, n)
    assert len(pivots) + len(null) == n == mat_rank(M) + len(null)
    for v in null:
        assert all(f.is_zero(_dot(f, row, v)) for row in M.rows)


@pytest.mark.parametrize("p", [2, 3, 2147483629])
def test_extend_stops_at_full_rank(p, monkeypatch):
    """extend inserts a tall batch only until the rank is full: no later row
    can add a pivot, and skipping them keeps tall systems cheap."""
    f = field_for(p)
    rng = random.Random(p)
    rows = [el_from_dense(f, [rng.randrange(p) for _ in range(5)]) for _ in range(200)]
    probe = Echelon(f, 5)
    full = next(k for k, row in enumerate(rows, 1) if probe.add(row) is not None
                and len(probe) == 5)
    inserted = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add",
                        lambda self, vec, vid=None: inserted.append(vec) or add(self, vec, vid))
    ech = Echelon(f, 5).extend(rows)
    assert inserted == rows[:full] and full < len(rows)
    assert (ech.rows, ech.pivots) == (probe.rows, probe.pivots)


# -- the Echelon against the dense-list reference ------------------------------

DIFF_FIELDS = [(2, False), (3, False), (7, False), (2147483629, False), (0, False), (2, True)]


def _same(f, ech, ref):
    """ech and the reference hold the same pivots, rows and combos, and
    every row of ech is a clean element."""
    _check_elements(f, ech.rows, ech.ncols)
    assert ech.pivots == ref.pivots
    assert repr([el_to_dense(f, r, ech.ncols) for r in ech.rows]) == repr(ref.rows)
    assert [ech._combos[pc] for pc in ech.pivots] == ref.combos


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("p,parametric", DIFF_FIELDS)
@given(data=st.data())
def test_echelon_matches_the_dense_reference(p, parametric, track, data):
    """Echelon, which takes and returns elements, against DenseEchelon, the
    same engine with dense lists at its boundary, on small mostly filled
    rows."""
    f = field_for(p, parametric)
    big = 2**40 if p > 7 else 3
    n = data.draw(st.integers(1, 6), label="ncols")
    cells = st.tuples(st.integers(-big, big), st.integers(-1, 1))
    grid = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), max_size=8), label="M")
    _check_against_dense(f, n, track, [[_entry(f, c0, c1) for c0, c1 in row] for row in grid],
                         data)


@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("p,parametric", DIFF_FIELDS)
@given(data=st.data())
def test_echelon_matches_the_dense_reference_on_sparse_rows(p, parametric, track, data):
    """The same comparison on wide sparse rows, at most 4 nonzero entries
    in up to 24 columns, the regime of the stored brackets and of ad_x:
    rows that update others grow and lose keys."""
    f = field_for(p, parametric)
    big = 2**40 if p > 7 else 3
    n = data.draw(st.integers(8, 24), label="ncols")
    cells = st.tuples(st.integers(0, n - 1), st.integers(-big, big), st.integers(-1, 1))
    grid = data.draw(st.lists(st.lists(cells, min_size=1, max_size=4), max_size=8), label="M")
    dense = []
    for row in grid:
        vec = [f.zero] * n
        for j, c0, c1 in row:
            vec[j] = _entry(f, c0, c1)
        dense.append(vec)
    _check_against_dense(f, n, track, dense, data)


def _check_against_dense(f, n, track, dense, data):
    """add and reduce on every vector, then a copy grown apart
    from its source, complete_with_units, and extend with its stop at full
    rank, against DenseEchelon.  The elements handed in may carry explicit
    zero coefficients."""
    vecs = []  # (element, its dense list)
    for row in dense:
        u = el_from_dense(f, row)
        zeros = data.draw(st.sets(st.sampled_from(range(n)), max_size=6), label="zeros")
        u.update({j: f.zero for j in zeros if j not in u})
        vecs.append((u, row))
    ech, ref = Echelon(f, n, track), DenseEchelon(f, n, track)
    for t, (u, row) in enumerate(vecs):
        vid = t if track else None
        assert ech.add(u, vid) == ref.add(row, vid)
        for v, vrow in vecs:
            (res, combo), (ref_res, ref_combo) = ech.reduce(v), ref.reduce(vrow)
            _check_elements(f, [res], n)
            assert repr(el_to_dense(f, res, n)) == repr(ref_res) and combo == ref_combo
    _same(f, ech, ref)

    if vecs:
        cut = data.draw(st.integers(0, len(vecs) - 1), label="cut")
        grown, ref_grown = Echelon(f, n, track), DenseEchelon(f, n, track)
        for t, (u, row) in enumerate(vecs[:cut]):
            grown.add(u, t if track else None)
            ref_grown.add(row, t if track else None)
        twin = grown.copy()
        for t, (u, row) in enumerate(vecs[cut:], cut):
            twin.add(u, t if track else None)
        _same(f, grown, ref_grown)  # the source did not move
        _same(f, twin, ref)

    assert ech.copy().complete_with_units() == ref.copy().complete_with_units()
    if not track:
        units = [({j: f.one}, [f.one if k == j else f.zero for k in range(n)]) for j in range(n)]
        batch = vecs + units + vecs
        rest, ref_rest = iter([u for u, _ in batch]), iter([row for _, row in batch])
        _same(f, Echelon(f, n).extend(rest), DenseEchelon(f, n).extend(ref_rest))
        assert len(list(rest)) == len(list(ref_rest)) >= len(vecs) - 1  # stopped


def _index_of_rows(ech):
    """The column index recomputed from the rows: column -> the pivots of
    the rows that hold it."""
    out = {}
    for pc, row in ech._rows.items():
        for j in row:
            out.setdefault(j, set()).add(pc)
    return out


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("p,parametric", DIFF_FIELDS)
@given(data=st.data())
def test_column_index_matches_the_rows(p, parametric, track, data):
    """After every step of a random sequence of adds and copies, each
    echelon's column index equals the one recomputed from its rows, and an
    add to one echelon leaves the rows and the index of every other one
    unchanged, its source and its copies included."""
    f = field_for(p, parametric)
    big = 2**40 if p > 7 else 3
    n = data.draw(st.integers(1, 10), label="ncols")
    cells = st.tuples(st.integers(0, n - 1), st.integers(-big, big), st.integers(-1, 1))
    steps = data.draw(st.lists(st.none() | st.lists(cells, min_size=1, max_size=4),
                               max_size=14), label="steps")  # None: copy
    echs = [Echelon(f, n, track)]
    for t, step in enumerate(steps):
        k = data.draw(st.integers(0, len(echs) - 1), label="echelon")
        if step is None:
            echs.append(echs[k].copy())
            continue
        others = [(e, {pc: dict(r) for pc, r in e._rows.items()},
                   {j: set(pcs) for j, pcs in e._holders.items()})
                  for e in echs if e is not echs[k]]
        echs[k].add({j: _entry(f, c0, c1) for j, c0, c1 in step}, t if track else None)
        for e, rows, index in others:
            assert (e._rows, e._holders) == (rows, index)
        for e in echs:
            assert e._holders == _index_of_rows(e)


# -- the homology matrices against their list-based references ----------------


def _ad_matrix_reference(g, u):
    """Rows of ad_u built column by column through the bracket."""
    f = g.field
    n = g.dim
    cols = [el_to_dense(f, g.bracket(u, {j: f.one}), n) for j in range(n)]
    return [[cols[j][m] for j in range(n)] for m in range(n)]


def _scalars(rows):
    return [x for row in rows for x in row.values()]


def _check_kernel_mod_image(M):
    """kernel_mod_image of the rows of M gives the image rows and pivots,
    the kernel and the complement of the dense-list reference, repr for
    repr; every element it returns is clean, and over GF(p) every scalar it
    returns is a Python int."""
    f = M.field
    want = kernel_mod_image_reference(M)
    im, ker, comp = kernel_mod_image(f, M.rows)
    assert repr((im.rows, im.pivots, ker, comp)) == repr(want)
    _check_elements(f, im.rows + ker + comp, M.ncols)
    if isinstance(f, PrimeField):
        assert {type(x) for x in _scalars(im.rows + ker + comp)} <= {int}
    return want


def _square_zero(f, n, rank, ops):
    """P N P^-1 with N = sum_{t < rank} E_{2t, 2t+1}, so M^2 = 0 and M has
    the given rank; P is the product of the elementary matrices I + c E_ij
    in ops, applied as a row and a column operation each."""
    M = [[f.zero] * n for _ in range(n)]
    for t in range(rank):
        M[2 * t][2 * t + 1] = f.one
    for i, j, c in ops:
        if i == j:
            continue
        M[i] = [f.add(x, f.mul(c, y)) for x, y in zip(M[i], M[j])]
        for row in M:
            row[j] = f.sub(row[j], f.mul(c, row[i]))
    return M


# GF(2147483629) puts sums of products of two residues past int64
HOMOLOGY_FIELDS = [(2, False), (3, False), (5, False), (7, False),
                   (2147483629, False), (0, False), (2, True)]


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("p,parametric", HOMOLOGY_FIELDS)
@given(data=st.data())
def test_kernel_mod_image_matches_reference(p, parametric, data):
    f = field_for(p, parametric)
    big = 2**40 if p > 5 else 3
    n = data.draw(st.integers(1, 8), label="n")
    rank = data.draw(st.sampled_from([0, n // 2]) | st.integers(0, n // 2), label="rank")
    cells = st.tuples(st.integers(-big, big), st.integers(-1, 1))
    ops = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), cells),
                             max_size=12), label="ops")
    rows = _square_zero(f, n, rank, [(i, j, _entry(f, *c)) for i, j, c in ops])
    M = dense_matrix(f, rows, n)
    assert all(f.is_zero(_dot(f, el_from_dense(f, row), el_from_dense(f, col)))
               for row in rows for col in zip(*rows))
    im_rows, _, ker, comp = _check_kernel_mod_image(M)
    assert len(im_rows) == rank and len(ker) == n - rank and len(comp) == n - 2 * rank


def test_kernel_mod_image_sums_past_int64():
    """At rank 16 over GF(2147483629) the image reduction sums 16 products
    of two residues, past int64 if they were summed in fixed width."""
    f = field_for(2147483629)
    rng = random.Random(5)
    n = 32
    ops = [(rng.randrange(n), rng.randrange(n), f.from_int(rng.randrange(f.p)))
           for _ in range(200)]
    _check_kernel_mod_image(dense_matrix(f, _square_zero(f, n, n // 2, ops), n))


@pytest.mark.parametrize("p,parametric", HOMOLOGY_FIELDS)
def test_kernel_mod_image_of_the_empty_and_the_zero_matrix(p, parametric):
    """n = 0 gives an empty image, kernel and complement; on the zero
    matrix the kernel and the complement are the unit vectors."""
    f = field_for(p, parametric)
    im, ker, comp = kernel_mod_image(f, [])
    assert (im.ncols, len(im), ker, comp) == (0, 0, [], [])
    for n in (1, 5):
        units = [{j: f.one} for j in range(n)]
        assert _check_kernel_mod_image(Matrix(f, [{}] * n, ncols=n))[1:] == ([], units, units)


# -- block-diagonal matrices and ad_x ------------------------------------------

BLOCK_FIELDS = [(2, False), (3, False), (2147483629, False), (0, False), (2, True),
                (3, True), (0, True)]


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("p,parametric", BLOCK_FIELDS)
@given(data=st.data())
def test_block_split_matches_the_whole_matrix(p, parametric, data):
    """kernel_mod_image against the dense-list reference on a block-diagonal
    square-zero matrix under a random simultaneous permutation of rows and
    columns; one full block, the zero matrix and a single nonzero entry
    are drawn as shapes of their own."""
    f = field_for(p, parametric)
    shape = data.draw(st.sampled_from(["blocks", "full", "zero", "single"]), label="shape")
    cells = st.tuples(st.integers(-3, 3), st.integers(-1, 1))
    if shape == "blocks":
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5), label="sizes")
    else:
        sizes = [data.draw(st.integers(2 if shape == "single" else 1, 8), label="n")]
    n = sum(sizes)
    M = [[f.zero] * n for _ in range(n)]
    rank = start = 0
    for k in sizes:
        if shape == "single":
            i, j = data.draw(st.permutations(range(k)), label="ij")[:2]
            c = data.draw(cells.filter(lambda c: not f.is_zero(_entry(f, *c))), label="c")
            block, r = [[f.zero] * k for _ in range(k)], 1
            block[i][j] = _entry(f, *c)
        else:
            r = 0 if shape == "zero" else data.draw(st.integers(0, k // 2), label="rank")
            ops = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                               cells), max_size=3 * k), label="ops")
            block = _square_zero(f, k, r, [(i, j, _entry(f, *c)) for i, j, c in ops])
        for i in range(k):
            M[start + i][start:start + k] = block[i]
        rank += r
        start += k
    perm = data.draw(st.permutations(range(n)), label="perm")
    M = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    im_rows, _, ker, comp = _check_kernel_mod_image(dense_matrix(f, M, n))
    assert len(im_rows) == rank and len(ker) == n - rank and len(comp) == n - 2 * rank


BLOCK_ALGEBRAS = [("bgl(3;alpha)", 2), ("bgl(4;alpha)", 2), ("osp(4|2;a)", 5), ("gl(2|2)", 0)]


def _single_roots(cache_dir, key, p):
    """(g, the homological single roots of g): the candidates of a catalog
    build, or the homological odd basis vectors of a classical algebra."""
    if parse_key(key):
        g = classical(*parse_key(key), p)
        singles = [{k: g.field.one} for k in range(g.dim)
                   if g.parities[k] and is_homological(g, {k: g.field.one}) == "odd"]
    else:
        b = build_catalog_algebra(key, p, cache_dir=cache_dir)
        g = b.algebra
        singles = [c.element for c in single_root_candidates(b)]
    assert singles
    return g, singles


@pytest.mark.parametrize("key,p", BLOCK_ALGEBRAS)
def test_block_split_matches_on_ad_x(cache_dir, key, p):
    """kernel_mod_image of ad_x, which falls into many small connected
    blocks, against the dense-list reference, for every homological single
    root and 15 seeded sums of two of them.  Neither side needs
    (ad_x)^2 = 0, so a sum that is not homological is checked too."""
    g, singles = _single_roots(cache_dir, key, p)
    rng = random.Random(0)
    pairs = [el_add(g.field, *rng.sample(singles, 2)) for _ in range(15)]
    for el in singles + pairs:
        _check_kernel_mod_image(Matrix(g.field, g.ad_matrix(el), ncols=g.dim))


AD_KEYS = [("brj(2;5)", 5), ("g(6,6)", 3), ("e(7,1)", 2), ("bgl(3;alpha)", 2)]


@pytest.mark.parametrize("key,p", AD_KEYS)
def test_ad_matrix_matches_reference(cache_dir, key, p):
    b = build_catalog_algebra(key, p, cache_dir=cache_dir)
    g = b.algebra
    prime = isinstance(g.field, PrimeField)
    cands = single_root_candidates(b)
    assert cands
    for c in cands:
        rows = g.ad_matrix(c.element)
        assert all(not g.field.is_zero(x) for row in rows for x in row.values())
        if prime:
            assert {type(x) for row in rows for x in row.values()} == {int}
        assert [el_to_dense(g.field, r, g.dim) for r in rows] == \
            _ad_matrix_reference(g, c.element), c.description
        _check_kernel_mod_image(Matrix(g.field, rows, ncols=g.dim))


@pytest.mark.parametrize("key,p", AD_KEYS + [("gl(2|2)", 0)])
def test_adjoint_rank_matches_dense_rank(cache_dir, key, p):
    """adjoint_rank, the engine's rank of the sparse ad_x, is the rank of
    the dense reference ad-matrix, for every homological
    single root (over QQ, the odd basis vectors of gl(2|2))."""
    g, singles = _single_roots(cache_dir, key, p)
    for el in singles:
        want = mat_rank(dense_matrix(g.field, _ad_matrix_reference(g, el), g.dim))
        assert adjoint_rank(g, el) == want, el


def _orthogonal_sums(cache_dir, key, p):
    """(g, elements): every basis vector of g (the single roots among them)
    and sums of orthogonal isotropic roots -- on a catalog build the sums
    of the first 2, 3, ... roots of each maximal orthogonal isotropic set,
    on gl/sl/psl(m|n) the chain elements x1 + x3 + ... of every length."""
    if parse_key(key):
        fam, m, n = parse_key(key)
        g = classical(fam, m, n, p)
        sums = [chain_element(g, k) for k in range(2, min(m, n) + 1)]
    else:
        b = build_catalog_algebra(key, p, cache_dir=cache_dir)
        g = b.algebra
        by_root = {h.constituents[0]: h.element for h in single_root_candidates(b)}
        sums = [el_sum(g.field, [(g.field.one, by_root[r]) for r in mset[:size]])
                for mset in isotropic_orthogonal_sets(b, symmetrize(b.spec))["max_sets"]
                for size in range(2, len(mset) + 1)]
    return g, [{k: g.field.one} for k in range(g.dim)] + sums


CLASSICAL_AD = [("gl(2|2)", 0), ("gl(3|2)", 2), ("sl(2|3)", 3), ("psl(3|3)", 3),
                ("psl(2|2)", 2), ("sl(3|3)", 5)]


@pytest.mark.parametrize("key,p", [(e.key, e.p) for e in all_entries()] + CLASSICAL_AD,
                         ids=lambda v: str(v))
def test_ad_matrix_matches_the_all_j_probe(cache_dir, key, p):
    """ad_matrix, which visits only the bracket partners of each i in the
    support of x, is the probe of all n values of j, repr for repr (key
    order included), on every catalog build at its p (K(a) included) and
    on gl, sl and psl, for every basis vector and orthogonal sums."""
    g, els = _orthogonal_sums(cache_dir, key, p)
    for el in els:
        assert repr(g.ad_matrix(el)) == repr(ad_matrix_reference(g, el)), el


@pytest.mark.parametrize("key,p", [("g(6,6)", 3), ("e(7,1)", 2), (None, 2)])
def test_homology_scalars_are_python_ints(cache_dir, key, p):
    """Over GF(p) every constant of g_x is a Python int: an np.int64 prints
    as np.int64(1) under numpy 2, which would change serialized text and
    digests.  Without a key, x is the central odd o3 of the p = 2 Heisenberg
    algebra, whose homology carries squares."""
    if key is None:
        g = _p2_heisenberg()
        hom = ds_homology(g, {g.labels.index("o3"): g.field.one}).homology
        assert hom.squares
    else:
        b = build_catalog_algebra(key, p, cache_dir=cache_dir)
        hom = ds_homology(b.algebra, single_root_candidates(b)[0]).homology
    consts = list(hom.brackets.values()) + list((hom.squares or {}).values())
    assert hom.brackets
    assert {type(c) for w in consts for c in w.values()} == {int}
    assert {type(k) for w in consts for k in w} == {int}


# -- the COO nullspace, peeled or whole, against the whole system --------------

# "0": exactly over QQ; "0big": over QQ with entries of 2^63 and more, so some
# sums leave int64 and the system goes unpeeled; "2a", "3a": over K(a),
# always unpeeled
PEEL_FIELDS = {"0": (0, False), "0big": (0, False), "2": (2, False), "3": (3, False),
               "5": (5, False), "7": (7, False), "2147483629": (2147483629, False),
               "2a": (2, True), "3a": (3, True)}
PEEL_SHAPES = ["random", "cascade", "no-singleton", "all-singleton", "empty"]
BIG = [1 << 63, -(1 << 63), -(1 << 63) - 1, (1 << 63) - 1, 1 << 70]


def _coo_field(name):
    """The field and the units an entry x u is drawn with: 1 over GF(p) and
    QQ, a few rational functions over K(a)."""
    f = field_for(*PEEL_FIELDS[name])
    if not f.spec.parametric:
        return f, [f.one]
    a = f.param()
    return f, [f.one, a, f.inv(f.add(f.one, a)), f.div(f.add(f.mul(a, a), f.one), a)]


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("name", list(PEEL_FIELDS))
@given(data=st.data())
def test_peeled_nullspace_matches_the_whole_system(name, data):
    """nullspace_coo of COO triples equals mat_nullspace of the dense
    system they sum to, over GF(p), QQ and K(a), repr for repr, and it
    peels exactly when every summed entry is a machine integer (never over
    K(a)).  Besides random systems the draws plant a cascade (a chain
    x_0 = 0, x_0 + x_1 = 0, x_1 + x_2 = 0, ..., where each variable stands
    alone only once the one before it is deleted), systems with no
    singleton equation, systems of singletons only, and the empty system;
    repeated entries that sum to 0 (mod p) are mixed into any of them, so
    an equation may look longer than it is, and some equations may be
    repeated under another index, as they are or on shifted columns."""
    f, units = _coo_field(name)
    p = f.p
    shape = data.draw(st.sampled_from(PEEL_SHAPES), label="shape")
    n = data.draw(st.integers(0 if shape == "empty" else 2, 7), label="ncols")
    if p:
        nonzero = st.builds(lambda a, k: a + k * p, st.integers(1, p - 1), st.integers(-2, 2))
        anything = st.integers(-3 * p, 3 * p)
    else:
        nonzero = st.integers(-9, 9).filter(bool)
        anything = st.integers(-9, 9)
        if name == "0big":
            nonzero = nonzero | st.sampled_from(BIG)
            anything = anything | st.sampled_from(BIG)
    unit = st.integers(0, len(units) - 1)
    eqs = data.draw(st.integers(1, 5), label="equations")
    quads, chain = [], []  # (equation, variable, x, unit): the entry x units[unit]
    if shape == "random":
        quads = data.draw(st.lists(st.tuples(st.integers(0, eqs), st.integers(0, n - 1),
                                             anything, unit), max_size=15), label="quads")
    elif shape == "cascade":
        chain = data.draw(st.permutations(range(n)), label="chain")[:data.draw(
            st.integers(2, n), label="length")]
        quads = [(0, chain[0], data.draw(nonzero), data.draw(unit))]
        for e in range(1, len(chain)):
            quads += [(e, chain[e - 1], data.draw(nonzero), data.draw(unit)),
                      (e, chain[e], data.draw(nonzero), data.draw(unit))]
        quads += data.draw(st.lists(st.tuples(st.integers(len(chain), len(chain) + eqs),
                                              st.integers(0, n - 1), anything, unit),
                                    max_size=8), label="extra")
    elif shape in ("no-singleton", "all-singleton"):
        size = st.integers(2, n) if shape == "no-singleton" else st.just(1)
        for e in range(eqs):
            cols = data.draw(st.permutations(range(n)), label="cols")[:data.draw(size)]
            quads += [(e, c, data.draw(nonzero), data.draw(unit)) for c in cols]
    if shape != "empty" and data.draw(st.booleans(), label="cancel"):
        for e, c, v, u in data.draw(st.lists(st.tuples(st.integers(0, eqs + 2),
                                                       st.integers(0, n - 1), anything, unit),
                                             min_size=1, max_size=4), label="cancelling"):
            quads += [(e, c, v, u), (e, c, -v + p * data.draw(st.integers(-1, 1)), u)]
    if quads and data.draw(st.booleans(), label="repeat"):
        top = max(q[0] for q in quads)
        for e in data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True),
                           label="repeated"):
            top += 1
            shift = data.draw(st.integers(0, n - 1), label="shift")  # 0: the same row
            quads += [(top, (c + shift) % n, v, u) for e2, c, v, u in quads if e2 == e]
    quads = [quads[i] for i in data.draw(st.permutations(range(len(quads))), label="order")]
    rows, cols = np.array([q[:2] for q in quads], dtype=np.int64).reshape(-1, 2).T
    # over GF(p) the array takes the integers as drawn, unreduced
    value = (lambda x, u: x) if p and not f.spec.parametric else \
        (lambda x, u: f.mul(f.from_int(x), units[u]))
    vals = array_ops(f).array([value(x, u) for _e, _c, x, u in quads])

    dense = [[f.zero] * n for _ in range(max(rows.tolist(), default=-1) + 1)]
    for e, c, x, u in quads:
        dense[e][c] = f.add(dense[e][c], f.mul(f.from_int(x), units[u]))
    want = mat_nullspace(dense_matrix(f, dense, n))
    with pytest.MonkeyPatch.context() as monkeypatch:
        unpeeled = []
        element_rows = linalg._element_rows
        monkeypatch.setattr(linalg, "_element_rows",
                            lambda *args: unpeeled.append(1) or element_rows(*args))
        got = nullspace_coo(f, n, rows, cols, vals)
    assert repr(got) == repr(want)
    _check_elements(f, got, n)
    assert all(type(x) is type(f.one) for vec in got for x in vec.values())

    key, sums = sum_by_key(array_ops(f), rows * n + cols, vals)
    eq, var = np.divmod(key, max(n, 1))
    assert key.tolist() == sorted(set(key.tolist()))
    machine = all(type(x) is int and -(1 << 63) <= x < 1 << 63 for x in sums.tolist())
    assert unpeeled == ([] if machine else [1])
    assert not (f.spec.parametric and machine and sums.size)
    if not machine:
        return
    core, kept = peel_mod_p(f, n, eq, var, sums.astype(np.int64))
    _check_elements(f, core.rows, core.ncols)
    assert len({tuple(r.items()) for r in core.rows}) == core.nrows  # no repeated row
    deleted = set(range(n)) - set(kept.tolist())
    assert n - len(got) == len(deleted) + mat_rank(core)
    if shape == "cascade":
        assert set(chain) <= deleted
    if shape == "all-singleton":
        assert core.nrows == 0
    if shape == "no-singleton":
        assert not deleted  # the cancelling entries add 0 to the sums


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 2147483629])
def test_peel_tells_equal_values_on_other_columns_apart(p):
    """x_0 + x_1 = 0 and x_1 + x_2 = 0 hold the same values on other
    columns, so neither repeats the other: both stay in the core and one
    variable is free (at p = 0 too, where a key v * p + c would lose the
    column)."""
    f = field_for(p)
    eq, var, vals = (np.array(a, dtype=np.int64)
                     for a in ([0, 0, 1, 1], [0, 1, 1, 2], [1, 1, 1, 1]))
    core, kept = peel_mod_p(f, 3, eq, var, vals)
    assert (core.nrows, kept.tolist()) == (2, [0, 1, 2])
    assert len(nullspace_coo(f, 3, eq, var, array_ops(f).array([f.one] * 4))) == 1
