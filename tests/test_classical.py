"""Classical matrix families as references."""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dslie.audit import load_expected
from dslie.classical import (abelian, alternating_parities, classical, gl, hei_odd, osp,
                             parse_key, psl, sl)
from dslie.fields import UsageError
from dslie.serialize import canonical_json, superalgebra_to_dict
from dslie.superalgebra import el_addmul
from helpers import psl_reference, quotient_by_ideal_reference, sl_reference


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
    q = quotient_by_ideal_reference(s, center)
    assert q.dim == s.dim - len(center)


def _table_classical_pairs() -> list:
    """The (key, p) pairs of every gl/sl/psl that a shipped table row names,
    as its algebra key or as its label, in sorted order."""
    pairs = set()
    for row in load_expected()["rows"]:
        for name in (row["key"], row.get("label")):
            if isinstance(name, str) and parse_key(name):
                pairs.add((name, row["p"]))
    return sorted(pairs)


def test_table_classical_algebras_pinned():
    """Every classical algebra the tables name, byte for byte: one sha256 over
    the canonical JSON of each, in sorted (key, p) order."""
    pairs = _table_classical_pairs()
    assert len(pairs) == 125
    h = hashlib.sha256()
    for key, p in pairs:
        h.update(canonical_json(superalgebra_to_dict(classical(*parse_key(key), p))).encode())
    assert h.hexdigest()[:16] == "e27e43f7bd34ee9d"


# (a, b) with a <= 5, b <= 6 where psl(a|b) is defined, per p; it raises on
# every other pair
PSL_DEFINED = {
    0: {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)},
    2: {(0, 2), (0, 4), (0, 6), (1, 1), (1, 3), (1, 5), (2, 0), (2, 2), (2, 4), (2, 6),
        (3, 1), (3, 3), (3, 5), (4, 0), (4, 2), (4, 4), (4, 6), (5, 1), (5, 3), (5, 5)},
    3: {(0, 3), (0, 6), (1, 1), (1, 4), (2, 2), (2, 5), (3, 0), (3, 3), (3, 6), (4, 1),
        (4, 4), (5, 2), (5, 5)},
    5: {(0, 5), (1, 1), (1, 6), (2, 2), (3, 3), (4, 4), (5, 0), (5, 5)},
    7: {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)},
}


@pytest.mark.parametrize("p", sorted(PSL_DEFINED))
def test_psl_defined_set_pinned(p):
    defined = set()
    for a in range(6):
        for b in range(7):
            try:
                psl(a, b, p)
            except UsageError as exc:
                assert str(exc) == f"psl({a}|{b}) undefined at p={p}: sl has trivial center"
            else:
                defined.add((a, b))
    assert defined == PSL_DEFINED[p]


def _outcome(build, a: int, b: int, p: int) -> str:
    """The canonical JSON of build(a, b, p), or its UsageError text."""
    try:
        return canonical_json(superalgebra_to_dict(build(a, b, p)))
    except UsageError as exc:
        return f"UsageError: {exc}"


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_sl_psl_match_two_step_reference_on_smallest_sizes(p):
    """sl and psl written down inside gl against the subalgebra of gl and
    the checked quotient by sl's center, for a + b <= 2."""
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        for new, ref in ((sl, sl_reference), (psl, psl_reference)):
            assert _outcome(new, a, b, p) == _outcome(ref, a, b, p), (new.__name__, a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.integers(0, 7), st.sampled_from([0, 2, 3, 5]), st.booleans())
def test_sl_psl_match_two_step_reference(a, b, p, central):
    """The same comparison on random sizes.  With ``central`` set, b moves to
    the largest b' <= b with b' = a mod p (b' = a at p = 0), where sl has a
    center and psl is defined."""
    if central:
        b = b - (b - a) % p if p else a
        assume(b >= 0)
    for new, ref in ((sl, sl_reference), (psl, psl_reference)):
        assert _outcome(new, a, b, p) == _outcome(ref, a, b, p), new.__name__
