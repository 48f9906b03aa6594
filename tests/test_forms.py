"""Invariant forms over prime fields.

Over GF(p) the invariance equations B([b_i,b_j], b_k) = B(b_i, [b_j,b_k])
(and, at p = 2, B(s(b_i), b_k) = B(b_i, [b_i,[b_i,b_k]])) are assembled
from the structure constants as one integer array without duplicate rows.
The differential test checks that this system has the same row space as
the generic assembly, which builds every equation triple by triple; the
pinned test fixes the invariant_forms() output byte for byte by the sha256
of (dim, forms, nondegenerate), recorded before the array assembly existed.
"""

import hashlib

import numpy as np
import pytest

from dslie.catalog import build_catalog_algebra
from dslie.classical import abelian, gl, osp, psl, sl
from dslie.ds import ds_homology
from dslie.fields import field_for
from dslie.linalg import rref
from dslie.superalgebra import FORMS_DIM_CUTOFF, Superalgebra, direct_sum
from test_subquotient import _p2_heisenberg

P31 = 2147483629  # a 31-bit prime: p^2 needs the int64 elimination


def _solvable_1_1() -> Superalgebra:
    """[e, o] = o at p = 3: brackets, but no entry of a form can be nonzero
    off the diagonal and B(o, o) = 0, so no equation has a variable."""
    f = field_for(3)
    return Superalgebra(f, ["e", "o"], [0, 1], {(0, 1): {1: f.one}})


def _homology(cache_dir, key, p, x):
    b = build_catalog_algebra(key, p, cache_dir=cache_dir)
    return ds_homology(b.algebra, b.x_element(x)).homology


ALGEBRAS = {
    "gl(2|1)/p2": lambda c: gl(2, 1, 2),
    "gl(2|1)/p3": lambda c: gl(2, 1, 3),
    "gl(2|1)/p5": lambda c: gl(2, 1, 5),
    "sl(2|2)/p2": lambda c: sl(2, 2, 2),
    "sl(2|3)/p3": lambda c: sl(2, 3, 3),
    "sl(3)/p5": lambda c: sl(3, 0, 5),
    "psl(2|2)/p2": lambda c: psl(2, 2, 2),
    "psl(2|2)/p5": lambda c: psl(2, 2, 5),
    "psl(3)/p3": lambda c: psl(3, 0, 3),
    "osp(1|2)/p3": lambda c: osp(1, 2, 3),
    "osp(3|2)/p3": lambda c: osp(3, 2, 3),
    "osp(3|2)/p5": lambda c: osp(3, 2, 5),
    "e(7,7)/x1+x3": lambda c: _homology(c, "e(7,7)", 2, "x1+x3"),
    "e(7,7)/x1+x3+x5": lambda c: _homology(c, "e(7,7)", 2, "x1+x3+x5"),
    "el(5;5)/x1": lambda c: _homology(c, "el(5;5)", 5, "x1"),
    "brj(2;3)/x1": lambda c: _homology(c, "brj(2;3)", 3, "x1"),
    # edge inputs: no equation at all, nonzero squares, the int64 path and
    # the largest dimension whose forms the fingerprint solves
    "abelian(2|3)/p2": lambda c: abelian(2, 3, 2),
    "abelian(2|3)/p5": lambda c: abelian(2, 3, 5),
    "solvable(1|1)/p3": lambda c: _solvable_1_1(),
    "p2-heisenberg": lambda c: _p2_heisenberg(),
    "gl(1|2)/p31": lambda c: gl(1, 2, P31),
    "osp(1|2)/p31": lambda c: osp(1, 2, P31),
    "gl(2|1)+abelian(22|17)/p5": lambda c: direct_sum(gl(2, 1, 5), abelian(22, 17, 5)),
}

# sha256 of repr((dim, forms, nondegenerate)), recorded with the generic
# triple-by-triple assembly over every field
PINNED = {
    "abelian(2|3)/p2": "74060d55e191d15ddae9385d5e7033ed3a745be9d337e3c97f9b8219c7bc64c0",
    "abelian(2|3)/p5": "953f0e5b9b7313dcbb9a7c4352fe2686e221d4d6853bd0c6ae69a60c8707fb68",
    "brj(2;3)/x1": "ffb2d16dfe0b76ae00ce83969726cda8a4d09bf5e72b23c1ac4dba00d1fa11ab",
    "e(7,7)/x1+x3": "c5ca806e87d3e8c828524e3a3d0907b60e5101c286055e3b61236afa70e9bb13",
    "e(7,7)/x1+x3+x5": "d32f77b5a72900a93300a754c65a583cd9d04d4ddabf2ed68757c364353d3282",
    "el(5;5)/x1": "eb45087ee585bb43798249f171595a7cf381a64d19db9957f72c52e7ef4d58dd",
    "gl(1|2)/p31": "80cb615200c9b6bfc70ae1d7145aeeee5b5c09426ae9ef4192576a3e4bdd2aba",
    "gl(2|1)+abelian(22|17)/p5": "4498eabacc075f725621f2423193de0b0ef1dc5c3311578cfc01f54992f0796e",
    "gl(2|1)/p2": "062730ea23b177d45121d7935bae70ff81d1c9a5403d0465ec3c760931067e2d",
    "gl(2|1)/p3": "79ef2c3099c3656e076a5224db201ed23475aeec7e8f03396c6a9e161df8b4b2",
    "gl(2|1)/p5": "fca425f2b69171986fc1a9a2fca989bd40eacd419fac24a514810148c4dc269d",
    "osp(1|2)/p3": "c387ad0ac59ced9cb1b461e7e0ad5580d95ef96dae9c078db5f0db79de998da3",
    "osp(1|2)/p31": "46b877fcdf785891ff533c27b71f5b1852fb6d9ade35372b2cfdd7a6e225a30a",
    "osp(3|2)/p3": "cb9d4fc685589882962d9c182f07125e3d62ce39f6bf171b34b12b51e24f976c",
    "osp(3|2)/p5": "f33b852a56591f9ecdd6fcc2c3573391c4ea318a9fbb95eadabad5092591ac76",
    "p2-heisenberg": "705dcad843f529e3923ce5dd6752a295eb1e07aa97a8b693d38a377aae5a2f89",
    "psl(2|2)/p2": "3b15ac159130287f7f2247527904f3537e49f44b738ed061510ae88bc49dbc22",
    "psl(2|2)/p5": "65414507affb21b74a5cf97a85eb503e50444880a1da6dcf38e75bb921687571",
    "psl(3)/p3": "fa764f41ca94c921f9304f4eeb289bc6a1564fc0ff96d3d41fc463f4f8c80c77",
    "solvable(1|1)/p3": "e623f2a3e5874df74456ece872824860b77b8af2d4f619a187f2803a37703e49",
    "sl(2|2)/p2": "ff9f5423d5d779e0a00fc49c77eac2761f191eafe270760790a62a226f7fa946",
    "sl(2|3)/p3": "cd2f1c898031e66e8e516986353fe0fe004384d3932aa2535fd7244de8e97d94",
    "sl(3)/p5": "fbb21860007df0f56d806be2a43a443ddd7ae7d940f1daf197bd75ccbb64d2bb",
}


def _digest(res) -> str:
    return hashlib.sha256(repr((res["dim"], res["forms"], res["nondegenerate"]))
                          .encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_forms_pinned(cache_dir, name):
    assert _digest(ALGEBRAS[name](cache_dir).invariant_forms()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_array_assembly_matches_generic(cache_dir, name):
    g = ALGEBRAS[name](cache_dir)
    p = g.field.p
    pairs = g._form_pairs()
    fast = g._form_equations_mod_p(pairs)
    generic = g._form_equations_generic(pairs)
    assert isinstance(fast.rows, np.ndarray) and fast.ncols == generic.ncols == len(pairs)
    assert rref(fast) == rref(generic)
    # reduced mod p, no zero row, leading entries 1, no repeated row
    a = fast.rows
    assert ((a >= 0) & (a < p)).all()
    lead = a[np.arange(len(a)), (a != 0).argmax(axis=1)]
    assert (lead == 1).all()
    assert len({r.tobytes() for r in a}) == len(a) <= generic.nrows


def test_edge_inputs():
    assert ALGEBRAS["gl(2|1)+abelian(22|17)/p5"](None).dim == FORMS_DIM_CUTOFF
    # no equation, so every pair variable is a form
    for name in ("abelian(2|3)/p2", "abelian(2|3)/p5", "solvable(1|1)/p3"):
        g = ALGEBRAS[name](None)
        assert g._form_equations_mod_p(g._form_pairs()).nrows == 0
        assert g.invariant_forms()["dim"] == len(g._form_pairs())
    # nonzero squares add equations: without them one more form survives
    g = _p2_heisenberg()
    assert g.squares
    squares_free = Superalgebra(g.field, g.labels, g.parities, g.brackets, {}, None)
    assert (g.invariant_forms()["dim"], squares_free.invariant_forms()["dim"]) == (6, 7)
