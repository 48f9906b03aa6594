"""check_axioms against the pair-by-column reference.

Superalgebra.check_axioms checks the super Jacobi identity as
ad_{[b_i,b_j]} = ad_i ad_j - s_ij ad_j ad_i for every pair i <= j, on all
columns at once, by contracting the stored structure constants (and at
p = 2 the square rule ad_{s(b_i)} = ad_i^2).  The reference below is the
earlier algorithm: for each pair it brackets basis triples column by column
through Superalgebra.bracket.  Both must agree exactly, on valid algebras
and on algebras with one structure constant or one square flipped.
"""

import pytest

from dslie.catalog import all_entries, build_catalog_algebra
from dslie.classical import gl, osp, psl, sl
from dslie.ds import ds_homology
from dslie.fields import field_for
from dslie.superalgebra import MAX_VIOLATIONS, Superalgebra, el_add, el_scale
from test_subquotient import BUILDERS


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

    support = [[k for k in range(n) if g.bracket_basis(i, k)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            vij = g.bracket_basis(i, j)
            ks = set(range(n)) if vij else set(support[i]) | set(support[j])
            sign = f.neg(f.one) if (g.parities[i] and g.parities[j] and f.p != 2) else f.one
            for k in sorted(ks):
                lhs = g.bracket(vij, {k: f.one})
                t1 = g.bracket({i: f.one}, g.bracket_basis(j, k))
                t2 = g.bracket({j: f.one}, g.bracket_basis(i, k))
                # [[i,j],k] = [i,[j,k]] - (-1)^{p_i p_j} [j,[i,k]]
                if minus(lhs, minus(t1, el_scale(f, sign, t2))):
                    note(f"Jacobi failure at ({g.labels[i]},{g.labels[j]},{g.labels[k]})")
                    break
            if len(bad) >= MAX_VIOLATIONS:
                return bad
    if f.p == 3:
        for i in range(n):
            if g.parities[i] == 1 and g.bracket({i: f.one}, g.bracket_basis(i, i)):
                note(f"[x,[x,x]] != 0 for odd {g.labels[i]}")
    if f.p == 2:
        for i in range(n):
            if g.parities[i] != 1:
                continue
            si = (g.squares or {}).get(i, {})
            for k in range(n):
                lhs = g.bracket(si, {k: f.one})
                if minus(lhs, g.bracket({i: f.one}, g.bracket_basis(i, k))):
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


def _flip_square(g: Superalgebra, odd: str, even: str) -> Superalgebra:
    """g at p = 2 with the coefficient of ``even`` in s(``odd``) raised by 1."""
    f = g.field
    i, m = g.labels.index(odd), g.labels.index(even)
    sq = {k: dict(v) for k, v in g.squares.items()}
    sq.setdefault(i, {})[m] = f.add(sq.get(i, {}).get(m, f.zero), f.one)
    return Superalgebra(f, g.labels, g.parities, g.brackets, sq, g.weights)


# name: (characteristic, parametric field, builder)
MUTANTS = {
    "gl(2|1)/p2 bracket": (2, False, lambda c: _flip_bracket(gl(2, 1, 2), 3)),
    "gl(2|1)/p2 square": (2, False, lambda c: _flip_square(gl(2, 1, 2), "E1,2", "E1,1")),
    "sl(2|2)/p2 square": (2, False, lambda c: _flip_square(sl(2, 2, 2), "E1,2", "E1,3")),
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
