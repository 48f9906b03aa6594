"""check_axioms against the pair-by-column reference.

Superalgebra.check_axioms checks the super Jacobi identity as
ad_{[b_i,b_j]} = ad_i ad_j - s_ij ad_j ad_i for every pair i <= j, on all
columns at once, with the square rule ad_{s(b_i)} = ad_i^2 at p = 2 and
the cube rule [x,[x,x]] = 0 at p = 3.  One contraction of the stored
structure constants decides the rules on every field: its join and keys
are integer arrays, and only the scalar ops on its values depend on the
field (linalg.array_ops: int64 mod p over GF(p), object arrays over QQ
and K(a)), summed by linalg.sum_by_key; the failures are named from the
keys of its nonzero sums.  The reference below is the
earlier algorithm: for each pair it brackets basis triples column by
column through Superalgebra.bracket.  Both must agree exactly, on valid
algebras and on algebras with one structure constant or one square
flipped (fixed mutants over five kinds of field, and random flips over
GF(2), GF(3), GF(5), GF(7), GF(11), QQ, GF(2)(a) and GF(5)(a)), with the
contraction in one step or in the smallest chunks.
"""

import functools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dslie import superalgebra
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import gl, osp, psl, sl
from dslie.ds import ds_homology
from dslie.fields import field_for
from dslie.superalgebra import MAX_VIOLATIONS, Superalgebra
from helpers import bracket_basis, el_add, el_scale, poly
from test_subquotient import BUILDERS, _transformed


def reference_check(g: Superalgebra) -> list:
    f = g.field
    n = g.dim
    bad = []

    def note(msg):
        if len(bad) < MAX_VIOLATIONS:
            bad.append(msg)

    def minus(u, v):
        return el_add(f, u, el_scale(f, f.neg(f.one), v))

    for (i, j), v in g.brackets.items():
        pij = (g.parities[i] + g.parities[j]) % 2
        for k in v:
            if g.parities[k] != pij:
                note(f"parity of [{g.labels[i]},{g.labels[j]}] component {g.labels[k]}")
        if g.weights is not None:
            wi, wj = g.weights[i], g.weights[j]
            if wi is not None and wj is not None:
                wij = tuple(a + b for a, b in zip(wi, wj))
                for k in v:
                    if g.weights[k] is not None and g.weights[k] != wij:
                        note(f"weight of [{g.labels[i]},{g.labels[j]}]")
    if f.p == 2 and g.squares:
        for i, v in g.squares.items():
            for k in v:
                if g.parities[k] != 0:
                    note(f"parity of s({g.labels[i]})")
            if g.weights is not None and g.weights[i] is not None:
                w2 = tuple(2 * a for a in g.weights[i])
                for k in v:
                    if g.weights[k] is not None and g.weights[k] != w2:
                        note(f"weight of s({g.labels[i]})")

    support = [[k for k in range(n) if bracket_basis(g, i, k)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            vij = bracket_basis(g, i, j)
            ks = set(range(n)) if vij else set(support[i]) | set(support[j])
            sign = f.neg(f.one) if (g.parities[i] and g.parities[j] and f.p != 2) else f.one
            for k in sorted(ks):
                lhs = g.bracket(vij, {k: f.one})
                t1 = g.bracket({i: f.one}, bracket_basis(g, j, k))
                t2 = g.bracket({j: f.one}, bracket_basis(g, i, k))
                # [[i,j],k] = [i,[j,k]] - (-1)^{p_i p_j} [j,[i,k]]
                if minus(lhs, minus(t1, el_scale(f, sign, t2))):
                    note(f"Jacobi failure at ({g.labels[i]},{g.labels[j]},{g.labels[k]})")
                    break
            if len(bad) >= MAX_VIOLATIONS:
                return bad
    if f.p == 3:
        for i in range(n):
            if g.parities[i] == 1 and g.bracket({i: f.one}, bracket_basis(g, i, i)):
                note(f"[x,[x,x]] != 0 for odd {g.labels[i]}")
    if f.p == 2:
        for i in range(n):
            if g.parities[i] != 1:
                continue
            si = (g.squares or {}).get(i, {})
            for k in range(n):
                lhs = g.bracket(si, {k: f.one})
                if minus(lhs, g.bracket({i: f.one}, bracket_basis(g, i, k))):
                    note(f"[s(x),z] != [x,[x,z]] for x={g.labels[i]}, z={g.labels[k]}")
                    break
    return bad


def _homology(key, p, x, cache_dir):
    b = build_catalog_algebra(key, p, cache_dir=cache_dir)
    return ds_homology(b.algebra, b.x_element(x)).homology


HOMOLOGIES = [
    ("brj(2;3)", 3, "x1"), ("brj(2;5)", 5, "x1"), ("brj(2;5)", 5, "x1+x7"),
    ("el(5;5)", 5, "x1"), ("el(5;3)", 3, "x1"), ("e(6,1)", 2, "x1"),
    ("e(7,7)", 2, "x1+x3"), ("e(7,7)", 2, "x1+x3+x5"), ("bgl(3;alpha)", 2, "x1"),
    ("bgl(4;alpha)", 2, "x1"), ("g(2,3)", 3, "x1"), ("osp(4|2;a)", 5, "x1"),
]

# the reference brackets basis triples one by one: keep it to the builds it
# finishes in seconds (the new check still runs on every build)
REFERENCE_MAX_DIM = 80


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_subquotient_structures_pass(name):
    g = BUILDERS[name]()
    assert g.check_axioms() == reference_check(g) == []


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: f"{e.key}@p{e.p}")
def test_catalog_builds_pass(ent, cache_dir):
    g = build_catalog_algebra(ent.key, ent.p, cache_dir=cache_dir).algebra
    assert g.check_axioms() == []
    if g.dim <= REFERENCE_MAX_DIM:
        assert reference_check(g) == []


@pytest.mark.parametrize("key,p,x", HOMOLOGIES, ids=lambda v: str(v))
def test_homologies_pass(key, p, x, cache_dir):
    h = _homology(key, p, x, cache_dir)
    assert h.check_axioms() == reference_check(h) == []


def _flip_bracket(g: Superalgebra, nth: int) -> Superalgebra:
    """g with the first constant of its nth stored bracket (sorted keys)
    raised by 1."""
    f = g.field
    br = {k: dict(v) for k, v in g.brackets.items()}
    key = sorted(br)[nth]
    m = min(br[key])
    br[key][m] = f.add(br[key][m], f.one)
    return Superalgebra(f, g.labels, g.parities, br, g.squares, g.weights)


def _flip_square(g: Superalgebra, odd: str, even: str, weights: bool = True) -> Superalgebra:
    """g at p = 2 with the coefficient of ``even`` in s(``odd``) raised by 1;
    without ``weights`` the weight check cannot see the flip."""
    f = g.field
    i, m = g.labels.index(odd), g.labels.index(even)
    sq = {k: dict(v) for k, v in g.squares.items()}
    sq.setdefault(i, {})[m] = f.add(sq.get(i, {}).get(m, f.zero), f.one)
    return Superalgebra(f, g.labels, g.parities, g.brackets, sq, g.weights if weights else None)


# name: (characteristic, parametric field, builder)
MUTANTS = {
    "gl(2|1)/p2 bracket": (2, False, lambda c: _flip_bracket(gl(2, 1, 2), 3)),
    "gl(2|1)/p2 square": (2, False, lambda c: _flip_square(gl(2, 1, 2), "E1,2", "E1,1")),
    "sl(2|2)/p2 square": (2, False, lambda c: _flip_square(sl(2, 2, 2), "E1,2", "E1,3")),
    "gl(2|1)/p2 square, no weights": (2, False, lambda c: _flip_square(
        gl(2, 1, 2), "E1,2", "E1,1", weights=False)),
    "e(7,7)/p2 x1+x3 bracket": (2, False, lambda c: _flip_bracket(
        _homology("e(7,7)", 2, "x1+x3", c), 2)),
    "psl(2|2)/p3 bracket": (3, False, lambda c: _flip_bracket(psl(2, 2, 3), 5)),
    "brj(2;3)/p3 bracket": (3, False, lambda c: _flip_bracket(
        build_catalog_algebra("brj(2;3)", 3, cache_dir=c).algebra, 7)),
    "osp(3|2)/p5 bracket": (5, False, lambda c: _flip_bracket(osp(3, 2, 5), 4)),
    "el(5;5)/p5 x1 bracket": (5, False, lambda c: _flip_bracket(
        _homology("el(5;5)", 5, "x1", c), 0)),
    "gl(2|1)/p0 bracket": (0, False, lambda c: _flip_bracket(gl(2, 1, 0), 2)),
    "osp(3|2)/p0 bracket": (0, False, lambda c: _flip_bracket(osp(3, 2, 0), 6)),
    "bgl(3;alpha)/p2 bracket": (2, True, lambda c: _flip_bracket(
        build_catalog_algebra("bgl(3;alpha)", 2, cache_dir=c).algebra, 4)),
    "bgl(4;alpha)/p2 x1 bracket": (2, True, lambda c: _flip_bracket(
        _homology("bgl(4;alpha)", 2, "x1", c), 1)),
}


def test_mutants_cover_every_field_kind():
    assert {(p, par) for p, par, _ in MUTANTS.values()} == \
        {(2, False), (3, False), (5, False), (0, False), (2, True)}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_flipped_constant_is_reported(name, cache_dir):
    p, parametric, make = MUTANTS[name]
    g = make(cache_dir)
    assert (g.field.p, g.field.spec.parametric) == (p, parametric)
    bad = g.check_axioms()
    assert bad == reference_check(g)
    assert bad and len(bad) <= MAX_VIOLATIONS


def test_cube_rule_alone_is_reported():
    # p = 3, x odd: [x, x] = y, [x, y] = z, z central.  Every Jacobi pair
    # holds (the (x, x) one reads 3 [x, y] = 0), but [x, [x, x]] = z.
    f = field_for(3)
    g = Superalgebra(f, ["x", "y", "z"], [1, 0, 1], {(0, 0): {1: f.one}, (0, 1): {2: f.one}})
    assert g.check_axioms() == reference_check(g) == ["[x,[x,x]] != 0 for odd x"]


def test_square_rule_alone_is_reported():
    # the square mutants above are also weight failures; without weights,
    # and with E1,1 even, only the square rule sees the flip
    g = MUTANTS["gl(2|1)/p2 square, no weights"][2](None)
    bad = g.check_axioms()
    assert bad == reference_check(g)
    assert bad and all(msg.startswith("[s(x),z] != [x,[x,z]] for x=E1,2") for msg in bad)


# algebras for the random flips: homologies and small builds over GF(2),
# GF(3), GF(5), GF(7), GF(11), QQ, GF(2)(a) and GF(5)(a).  The x1 homology
# of osp(4|2;a) at p = 5 is 1|0 with no bracket, so no flip can be drawn on
# it; the build itself stands for GF(5)(a).  The transformed bgl(3;alpha)
# has nonzero squares, so each of its flips sums square paths over K(a).
FLIP_POOL = {
    "e(7,7)/p2 x1+x3": lambda c: _homology("e(7,7)", 2, "x1+x3", c),
    "e(6,1)/p2 x1": lambda c: _homology("e(6,1)", 2, "x1", c),
    "gl(2|1)/p2": lambda c: gl(2, 1, 2),
    "sl(2|2)/p2": lambda c: sl(2, 2, 2),
    "sl(2|2)/p2 transformed": lambda c: _transformed(sl(2, 2, 2)),
    "brj(2;3)/p3": lambda c: build_catalog_algebra("brj(2;3)", 3, cache_dir=c).algebra,
    "g(2,3)/p3 x1": lambda c: _homology("g(2,3)", 3, "x1", c),
    "psl(2|2)/p3": lambda c: psl(2, 2, 3),
    "el(5;5)/p5 x1": lambda c: _homology("el(5;5)", 5, "x1", c),
    "osp(3|2)/p5": lambda c: osp(3, 2, 5),
    "ab(3)/p7 x1": lambda c: _homology("ab(3)", 7, "x1", c),
    "ag(2)/p7 x1": lambda c: _homology("ag(2)", 7, "x1", c),
    "sl(2|1)/p7": lambda c: sl(2, 1, 7),
    "ab(3)/p11 x1": lambda c: _homology("ab(3)", 11, "x1", c),
    "osp(3|2)/p11": lambda c: osp(3, 2, 11),
    "gl(2|1)/p0": lambda c: gl(2, 1, 0),
    "sl(2|1)/p0": lambda c: sl(2, 1, 0),
    "osp(3|2)/p0": lambda c: osp(3, 2, 0),
    "bgl(3;alpha)/p2 x1": lambda c: _homology("bgl(3;alpha)", 2, "x1", c),
    "bgl(3;alpha)/p2 transformed": lambda c: _transformed(
        build_catalog_algebra("bgl(3;alpha)", 2, cache_dir=c).algebra),
    "osp(4|2;a)/p5": lambda c: build_catalog_algebra("osp(4|2;a)", 5, cache_dir=c).algebra,
}


@functools.lru_cache(maxsize=None)
def _flip_base(name: str, cache_dir: str) -> Superalgebra:
    return FLIP_POOL[name](cache_dir)


def test_flip_pool_covers_five_primes(cache_dir):
    """Five prime fields, QQ and two function fields GF(p)(a)."""
    fields = {_flip_base(name, cache_dir).field for name in FLIP_POOL}
    kinds = {(f.p, f.spec.parametric) for f in fields}
    assert kinds == {(2, False), (3, False), (5, False), (7, False), (11, False),
                     (0, False), (2, True), (5, True)}


def _nonzero_scalars(f):
    """The flips' scalars: every nonzero value of GF(p), small fractions
    over QQ, and over K(a) quotients of polynomials of degree < 3."""
    if f.spec.parametric:
        coeffs = st.lists(st.integers(0, f.p - 1), min_size=1, max_size=3)
        return st.builds(lambda a, b: f.div(poly(f, a), poly(f, b)), coeffs,
                         coeffs.filter(lambda b: poly(f, b) != f.zero)
                         ).filter(lambda x: x != f.zero)
    if f.p:
        return st.integers(1, f.p - 1)
    return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))


@settings(max_examples=90, deadline=None)
@given(name=st.sampled_from(sorted(FLIP_POOL)), data=st.data())
def test_random_flip_matches_reference(cache_dir, name, data):
    """One constant raised by a random nonzero scalar of the field: a
    stored bracket constant, a new component of a bracket or, at p = 2, a
    coefficient of a square.  A flip can leave a Lie superalgebra (scaling
    a basis vector of sl(2) changes one constant), and the reference says
    so; those examples are discarded, so every kept one exercises the
    naming of failures."""
    g = _flip_base(name, cache_dir)
    f, n = g.field, g.dim
    kinds = ["stored", "new"] + (["square"] * (f.p == 2))
    kind = data.draw(st.sampled_from(kinds))
    delta = data.draw(_nonzero_scalars(f))
    br = {k: dict(v) for k, v in g.brackets.items()}
    sq = {k: dict(v) for k, v in (g.squares or {}).items()}
    if kind == "stored":
        key, m = data.draw(st.sampled_from(sorted((k, m) for k, v in br.items() for m in v)))
        el = br[key]
    elif kind == "new":
        key = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
        par = sum(g.parities[i] for i in key) % 2
        m = data.draw(st.sampled_from([m for m in range(n) if g.parities[m] == par]))
        el = br.setdefault(key, {})
    else:
        i = data.draw(st.sampled_from([i for i in range(n) if g.parities[i]]))
        m = data.draw(st.sampled_from([m for m in range(n) if not g.parities[m]]))
        el = sq.setdefault(i, {})
    el[m] = f.add(el.get(m, f.zero), delta)
    h = Superalgebra(f, g.labels, g.parities, br, sq or None, g.weights)
    bad = h.check_axioms()
    assert bad == reference_check(h)
    assume(bad)
    assert len(bad) <= MAX_VIOLATIONS


def _valid(cache_dir) -> list:
    """Valid algebras over GF(2), GF(3), GF(5), GF(7), QQ and GF(2)(a); in
    the transformed sl(2|2) at p = 2 six odd basis vectors, and in the
    transformed bgl(3;alpha) five, have s(b_i) != 0 and ad_i^2 != 0, so the
    square rule has nonzero terms over GF(2) and over GF(2)(a)."""
    bgl3 = build_catalog_algebra("bgl(3;alpha)", 2, cache_dir=cache_dir).algebra
    return ([_homology(key, p, x, cache_dir) for key, p, x in
             [("e(7,7)", 2, "x1+x3"), ("el(5;5)", 5, "x1"), ("g(2,3)", 3, "x1"), ("ab(3)", 7, "x1")]]
            + [build_catalog_algebra("g(2,3)", 3, cache_dir=cache_dir).algebra, bgl3]
            + [_transformed(sl(2, 2, 2)), _transformed(bgl3), gl(2, 1, 0)])


def _mutants(cache_dir) -> list:
    return [make(cache_dir) for _, _, make in MUTANTS.values()]


def test_smallest_chunks_give_the_same_answers(cache_dir, monkeypatch):
    """With JACOBI_CHUNK = 1 every component that has paths is a chunk of
    its own, on every field."""
    valid, mutants = _valid(cache_dir), _mutants(cache_dir)
    answers = [g.check_axioms() for g in valid + mutants]
    assert not any(answers[:len(valid)]) and all(answers[len(valid):])
    joins = []
    join = superalgebra._join
    monkeypatch.setattr(superalgebra, "_join", lambda *a: joins.append(a) or join(*a))
    monkeypatch.setattr(superalgebra, "JACOBI_CHUNK", 1)
    for g, want in zip(valid + mutants, answers):
        joins.clear()
        assert g.check_axioms() == want
        if g in valid:
            assert len(joins) > 1


def test_contraction_fails_exactly_on_mutants(cache_dir):
    """On every field the contraction finds no nonzero sum on a valid
    algebra and at least one on each mutant."""
    valid, mutants = _valid(cache_dir), _mutants(cache_dir)
    assert {(g.field.p, g.field.spec.parametric) for g in valid} >= {(0, False), (2, True)}
    for g in valid:
        assert g._failing_sums() == []
    for g in mutants:
        assert g._failing_sums()


# traced peak of check_axioms on e(8,1) at p = 2, whose contraction has
# 1,079,392 paths: 15 MB in chunks of JACOBI_CHUNK = 2^16 paths, 211 MB in
# one step
E8_PEAK_CAP_MB = 32


def test_contraction_memory_stays_bounded(cache_dir):
    g = build_catalog_algebra("e(8,1)", 2, cache_dir=cache_dir).algebra
    # a fresh copy, so that the constants are read inside the traced call
    g = Superalgebra(g.field, g.labels, g.parities, g.brackets, g.squares, g.weights)
    tracemalloc.start()
    try:
        assert g.check_axioms() == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E8_PEAK_CAP_MB * 2**20
