"""Induced structures on subquotients.

Subalgebras, quotients by ideals, basis changes and the homologies
g_x = Ker ad_x / Im ad_x all carry the bracket (and the squaring at p = 2)
induced on a new basis.  The structures below are pinned byte for byte by
the sha256 of their canonical JSON, so a change to how that induced
structure is computed must reproduce every coordinate exactly.
"""

import hashlib

import pytest

from dslie.catalog import build_catalog_algebra
from dslie.classical import gl, osp, psl, sl
from dslie.ds import DSError, ds_homology
from dslie.fields import field_for
from dslie.serialize import canonical_json, superalgebra_to_dict
from dslie.superalgebra import Superalgebra
from dslie.tables import chain_element
from helpers import (first_derived_mod_center_reference, quotient_by_ideal_reference,
                     transform_basis)


def _p2_heisenberg() -> Superalgebra:
    """dim 2|3 at p = 2: s(o1) = c1, s(o2) = c2, [o1, o2] = c1; c1, c2 central."""
    f = field_for(2)
    return Superalgebra(f, ["c1", "c2", "o1", "o2", "o3"], [0, 0, 1, 1, 1],
                        {(2, 3): {0: f.one}}, {2: {0: f.one}, 3: {1: f.one}}, None)


def _unipotent(g: Superalgebra) -> list:
    """Fixed parity-preserving basis change b'_a = b_a + b_{a-1} + b_{a-2}
    (only the summands of b_a's parity)."""
    f = g.field
    n = g.dim
    return [[f.one if (i <= a <= i + 2 and g.parities[i] == g.parities[a]) else f.zero
             for a in range(n)] for i in range(n)]


def _unit(g: Superalgebra, *labels) -> list:
    f = g.field
    return [f.one if lab in labels else f.zero for lab in g.labels]


def _p2_subalgebra() -> Superalgebra:
    g = _p2_heisenberg()
    return g.subalgebra_from_rows([_unit(g, "o1", "o2"), _unit(g, "c1"), _unit(g, "c2")])


def _p2_quotient() -> Superalgebra:
    g = _p2_heisenberg()
    return quotient_by_ideal_reference(g, [_unit(g, "c1")])


def _transformed(g: Superalgebra) -> Superalgebra:
    return transform_basis(g, _unipotent(g))


def _g_x(key: str, p: int, x: str) -> Superalgebra:
    b = build_catalog_algebra(key, p)
    return ds_homology(b.algebra, b.x_element(x)).homology


def _chain_homology(g: Superalgebra, k: int) -> Superalgebra:
    return ds_homology(g, chain_element(g, k)).homology


BUILDERS = {
    "sl(2|1) p=0": lambda: sl(2, 1, 0),
    "psl(2|2) p=0": lambda: psl(2, 2, 0),
    "psl(2|2) p=3": lambda: psl(2, 2, 3),
    "osp(1|2) p=3": lambda: osp(1, 2, 3),
    "brj(2;3)^(1)/c p=3":
        lambda: build_catalog_algebra("brj(2;3)", 3).algebra.first_derived_mod_center(),
    "bgl(3;alpha)^(1)/c p=2":
        lambda: build_catalog_algebra("bgl(3;alpha)", 2).algebra.first_derived_mod_center(),
    "brj(2;3) g_x1": lambda: _g_x("brj(2;3)", 3, "x1"),
    "brj(2;5) g_x1+x7": lambda: _g_x("brj(2;5)", 5, "x1+x7"),
    "gl(2|2) p=0 g_chain1": lambda: _chain_homology(gl(2, 2, 0), 1),
    "gl(2|3) p=3 g_chain1": lambda: _chain_homology(gl(2, 3, 3), 1),
    "sl(2|1) p=3 transformed": lambda: _transformed(sl(2, 1, 3)),
    "p2 heisenberg transformed": lambda: _transformed(_p2_heisenberg()),
    "p2 heisenberg subalgebra": _p2_subalgebra,
    "p2 heisenberg quotient": _p2_quotient,
}

# sha256 of canonical_json(superalgebra_to_dict(...)), recorded before the
# induced-structure code was merged into Superalgebra.subquotient
PINNED = {
    "sl(2|1) p=0": "fe271b90aae93e5a413a11fa6ce722ee3e504e464fe872c680dc0698df854505",
    "psl(2|2) p=0": "be05022689380df559cad082defd869ecfc1b5034ff69a6a54e9316dde8f4162",
    "psl(2|2) p=3": "9db41ca6d35e357b5798d59c2b87ea811d4f48204b68cc126de1d0b8a41e9c9c",
    "osp(1|2) p=3": "527e5cdfe91e33e9824e3758ea6519c30d5ba5b7aec23375d18275cad02ce7e0",
    "brj(2;3)^(1)/c p=3": "99a2720d5d15dd0ae8f1d509ded8dfb55a4d7946f83a839cbd6af85cb1aaeabc",
    "bgl(3;alpha)^(1)/c p=2": "1f3e858c36685dac396626c765e51a70269b4fc6025326b7a26df56886680832",
    "brj(2;3) g_x1": "7f99bad05c85fe78118e4eae87e0a8ce9b7dc514939c67d5640d30c9fd9b26c0",
    "brj(2;5) g_x1+x7": "d104a7f3d1fd86aa55e7cf107faa1b636916ce3703a7ec673759366736e548a7",
    "gl(2|2) p=0 g_chain1": "f067a88cd488042d1ed33140e1c5603ed2bb3ac3b752ad2ff6f537c6a4079ef3",
    "gl(2|3) p=3 g_chain1": "c29847389db7b0e91b4fe12f28493a92ee1c912ef21c910fb89945c0ebf12ae5",
    "sl(2|1) p=3 transformed": "71851fd8199cf0f025e0e065cd9e8ad47f6582e00bdea238d3ff5a7b7a0a3c24",
    "p2 heisenberg transformed": "486d2f3e892b719da097a96344544cc13a711076b709d3cf05c1ea072146bacb",
    "p2 heisenberg subalgebra": "68a2afe03a97d9d609e1e12da1513141227af0ac55f23ddef6fa137103d940a1",
    "p2 heisenberg quotient": "066c191d3801ed02a48a26cf1108738cf5f465d9f35aae6f418940fae2108306",
}


def pinned_structure(name: str) -> str:
    g = BUILDERS[name]()
    return hashlib.sha256(canonical_json(superalgebra_to_dict(g)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_pinned_structure(name):
    assert pinned_structure(name) == PINNED[name]


@pytest.mark.parametrize("key,p", [("brj(2;3)", 3), ("bgl(3;alpha)", 2)])
def test_first_derived_mod_center_matches_checked_quotient(key, p):
    """g^(1)/c in one subquotient against the quotient that checks the
    center is an ideal (brackets, and squares at p = 2; bgl(3;alpha) is over
    K(a))."""
    g = build_catalog_algebra(key, p).algebra
    got = g.first_derived_mod_center()
    want = first_derived_mod_center_reference(g)
    assert canonical_json(superalgebra_to_dict(got)) == canonical_json(superalgebra_to_dict(want))


def test_subquotient_rejects_unclosed_subspace():
    g = gl(2, 0, 0)  # [E12, E21] = E11 - E22 is not in span(E12, E21)
    with pytest.raises(ValueError, match="leaves the subquotient span"):
        g.subquotient([_unit(g, "E1,2"), _unit(g, "E2,1")], labels=["e", "f"])


def test_ds_homology_turns_unclosed_kernel_into_dserror():
    # a bracket table that breaks Jacobi: a, b lie in Ker ad_x but
    # [a, b] = c does not, because [x, c] = d
    f = field_for(3)
    g = Superalgebra(f, ["x", "a", "b", "c", "d"], [1, 0, 0, 0, 1],
                     {(1, 2): {3: f.one}, (0, 3): {4: f.one}})
    with pytest.raises(DSError, match="leaves the subquotient span"):
        ds_homology(g, {0: f.one})
