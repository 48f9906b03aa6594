"""Highest-weight modules and module homology, the sparse action and
module homology against their dense references."""

import random
import re

import pytest

from dslie import modules
from dslie.audit import _parse_weight_entry
from dslie.build import BuildError, build_g_of_A
from dslie.cartan import CartanSpec
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.fields import field_for
from dslie.modules import build_irreducible, module_homology
from helpers import (bracket_basis, dense_element_matrix, dense_mat_mul, el_to_dense,
                     module_homology_reference)


def _dense(m, k):
    """The action matrix of basis element k as dense rows."""
    return [el_to_dense(m.build.field, r, m.dim) for r in m.action_matrix(k)]


def test_trivial_module():
    b = build_catalog_algebra("brj(2;5)", 5)
    m = build_irreducible(b, [0, 0])
    assert m.sdim == (1, 0)
    mh = module_homology(m, b.x_element("x1"))
    assert mh.rank == 0 and mh.sdim_mx == (1, 0)


def test_sl2_verma_quotients():
    b = build_g_of_A(CartanSpec(key="sl2", p=0, entries=[[2]], parities=[0]))
    for lam, dim in [(0, 1), (1, 2), (3, 4)]:
        m = build_irreducible(b, [lam])
        assert m.dim == dim


def test_bgl3_subquotient_module():
    b = build_catalog_algebra("bgl(3;alpha)", 2)
    f = b.field
    m = build_irreducible(b, [f.zero, f.one, f.zero], require_center_zero=True)
    assert m.sdim == (8, 6)


def test_bgl3_center_consistency_check():
    b = build_catalog_algebra("bgl(3;alpha)", 2)
    f = b.field
    # weight (1,0,0) does not kill the central combination a*h1 + h3
    with pytest.raises(BuildError):
        build_irreducible(b, [f.one, f.zero, f.zero], require_center_zero=True)


def test_bgl3_least_module_and_ranks():
    b = build_catalog_algebra("bgl(3;alpha)", 2)
    f = b.field
    m = build_irreducible(b, [f.one, f.zero, f.zero])
    assert sorted(m.sdim) == [4, 4]
    ranks = [module_homology(m, b.x_element(xs)).rank
             for xs in ("x1", "x2", "x3", "x1+x3")]
    assert ranks == [2, 3, 2, 4]


def test_module_rep_compatibility():
    """rho([u,v]) = rho(u)rho(v) - (-1)^(p p) rho(v)rho(u) on basis pairs."""
    b = build_catalog_algebra("brj(2;3)", 3)
    f = b.field
    m = build_irreducible(b, [f.one, f.zero], dim_cap=400, degree_cap=30)
    g = b.algebra
    dm = m.dim
    mats = [_dense(m, k) for k in range(g.dim)]

    rng = random.Random(0)
    pairs = [(rng.randrange(g.dim), rng.randrange(g.dim)) for _ in range(12)]
    for (u, v) in pairs:
        w = bracket_basis(g, u, v)
        lhs = [[f.zero] * dm for _ in range(dm)]
        for k, c in w.items():
            mk = mats[k]
            lhs = [[f.add(x, f.mul(c, y)) for x, y in zip(r1, r2)]
                   for r1, r2 in zip(lhs, mk)]
        ab = dense_mat_mul(f, mats[u], mats[v])
        ba = dense_mat_mul(f, mats[v], mats[u])
        sgn = f.neg(f.one) if (f.p != 2 and g.parities[u] and g.parities[v]) else f.one
        rhs = [[f.sub(x, f.mul(sgn, y)) for x, y in zip(r1, r2)]
               for r1, r2 in zip(ab, ba)]
        assert lhs == rhs, (u, v)


def test_module_squaring_compatibility_p2():
    b = build_catalog_algebra("bgl(3;alpha)", 2)
    f = b.field
    m = build_irreducible(b, [f.one, f.zero, f.zero])
    g = b.algebra
    dm = m.dim
    for k in range(g.dim):
        if g.parities[k] != 1:
            continue
        sq = (g.squares or {}).get(k, {})
        mk = _dense(m, k)
        m2 = dense_mat_mul(f, mk, mk)
        want = [[f.zero] * dm for _ in range(dm)]
        for t, c in sq.items():
            mt = _dense(m, t)
            want = [[f.add(x, f.mul(c, y)) for x, y in zip(r1, r2)]
                    for r1, r2 in zip(want, mt)]
        assert m2 == want, g.labels[k]


def test_module_growth_cap():
    b = build_g_of_A(CartanSpec(key="sl2", p=0, entries=[[2]], parities=[0]))
    q = field_for(0)
    with pytest.raises(BuildError) as err:
        build_irreducible(b, [q.div(q.one, q.from_int(2))], degree_cap=8)
    assert str(err.value) == ("degree cap 8 exceeded; growth profile "
                              "[1, 1, 1, 1, 1, 1, 1, 1, 1]")
    with pytest.raises(BuildError) as err:  # L(50) has dimension 51
        build_irreducible(b, [q.from_int(50)], dim_cap=10)
    assert str(err.value) == ("dimension cap 10 exceeded; growth profile "
                              "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]")


def test_module_homology_requires_square_zero():
    b = build_catalog_algebra("brj(2;3)", 3)
    f = b.field
    m = build_irreducible(b, [f.one, f.zero], dim_cap=400, degree_cap=30)
    with pytest.raises(ValueError):
        module_homology(m, b.x_element("x2"))  # x2 is not homological


MODULE_ENTRIES = [(e, m) for e in all_entries() for m in e.modules]


@pytest.mark.parametrize("entry,mod", MODULE_ENTRIES,
                         ids=[f"{e.key}@p{e.p}/{m['name']}" for e, m in MODULE_ENTRIES])
def test_module_homology_matches_the_dense_reference(cache_dir, entry, mod):
    """On every catalog module, for every odd basis vector and 20 seeded
    sums of two: the sparse rho_x densifies to the dense product of the
    words, and module_homology gives the rank, sdim_mx and basis rows of the
    dense rho_x and its dense-list Ker/Im, or raises where rho_x^2 != 0."""
    b = build_catalog_algebra(entry.key, entry.p, cache_dir=cache_dir)
    g = b.algebra
    f = g.field
    lam = [_parse_weight_entry(f, s) for s in mod["weight"]]
    m = build_irreducible(b, lam, hw_parity=mod.get("hw_parity", 0), name=mod["name"])
    odd = [k for k in range(g.dim) if g.parities[k] == 1]
    rng = random.Random(1)
    els = [{k: f.one} for k in odd] + [dict.fromkeys(rng.sample(odd, 2), f.one)
                                        for _ in range(20)]
    raised = 0
    for el in els:
        dense = [el_to_dense(f, r, m.dim) for r in m.element_matrix(el)]
        assert dense == dense_element_matrix(m, el), el
        try:
            want = module_homology_reference(m, el)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                module_homology(m, el)
            raised += 1
            continue
        mh = module_homology(m, el)
        assert repr((mh.rank, mh.sdim_mx, mh.basis_rows)) == repr(want), el
    assert 0 < raised < len(els)


def test_grading_rows_are_read_once_per_module(monkeypatch):
    """action_matrix of a grading element d_t reads build.grading_rows once
    per module, not once per call, and the matrices do not change."""
    b = build_catalog_algebra("bgl(3;alpha)", 2)
    assert b.n_grading
    f = b.field
    m = build_irreducible(b, [f.one, f.zero, f.zero])
    first = [m.action_matrix(b.n + t) for t in range(b.n_grading)]
    calls = []
    grading_rows = modules.grading_rows
    monkeypatch.setattr(modules, "grading_rows", lambda *a: calls.append(a) or grading_rows(*a))
    fresh = build_irreducible(b, [f.one, f.zero, f.zero])
    for _ in range(3):
        assert [fresh.action_matrix(b.n + t) for t in range(b.n_grading)] == first
    assert len(calls) == 1
