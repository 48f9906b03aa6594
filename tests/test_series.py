"""The fingerprint's series fields against the pairwise reference.

Superalgebra.structure_series reads [g, g] once from the stored brackets
(and squares at p = 2) and counts dim C ∩ [g, g] per parity as
dim C + dim [g, g] - dim (C + [g, g]).  Its spans stop once they fill a
space known to contain them.  The reference below is the earlier
algorithm, whose spans never stop: the first derived and lower central
steps bracket every pair of basis vectors, each derived step every pair
of its rows, the center is the nullspace of Field rows, and
center ∩ [g, g] is a basis found from the nullspace of the stacked center
and [g, g] rows.  The two are compared on small algebras, on the homology
of every row of the benchmark's ds-exceptional and classical-tables
pools, on every reference those rows name and on p = 2 algebras with
squares.

center_rows, which hands the stored constants to linalg.nullspace_coo
(peeled over GF(p) and QQ within int64, whole over K(a) and beyond), is
compared with the dense reference repr for repr on every catalog build,
on the subquotient structures of test_subquotient.py, on the algebras of
test_forms.py over GF(p), QQ and K(a), and on its QQ algebras at the
int64 bound.
"""

import pytest

from dslie.audit import Auditor
from dslie.catalog import all_entries, build_catalog_algebra
from dslie.cli import _DEFAULT_REF_NAMES
from dslie.build import build_g_of_A
from dslie.classical import abelian, gl, hei_odd, psl
from dslie.ds import ds_homology
from dslie.fields import UsageError
from dslie.linalg import Matrix, mat_nullspace
from dslie.superalgebra import GradedSpan, Superalgebra, direct_sum
from helpers import center_rows_reference, el_addmul, transpose
from test_forms import EVERY_FIELD, INT64_EDGE
from test_build import HAND_SPECS
from test_perfbench_hooks import _perfbench_module
from test_subquotient import BUILDERS, _p2_heisenberg


def _kernel_trick_meet(g: Superalgebra, rows_a, rows_b):
    """Basis of span(rows_a) ∩ span(rows_b): each nullspace vector of the
    stacked rows gives the combination of rows_a that lies in span(rows_b)."""
    f = g.field
    if not rows_a or not rows_b:
        return []
    M = transpose(Matrix(f, list(rows_a) + list(rows_b), ncols=g.dim))
    out = []
    for v in mat_nullspace(M):
        comb = {}
        for idx, c in v.items():
            if idx < len(rows_a):
                comb = el_addmul(f, comb, c, rows_a[idx])
        if comb:
            out.append(comb)
    return out


def _span(g: Superalgebra, elements) -> GradedSpan:
    """Every element added to a GradedSpan whose bound no span reaches, so
    that the reference's spans never stop."""
    span = GradedSpan(g, (g.dim + 1, g.dim + 1))
    for u in elements:
        span.add_element(u)
    return span


def _sdim(g: Superalgebra, rows):
    return _span(g, rows).sdim()


def _derived_step(g: Superalgebra, span: GradedSpan) -> GradedSpan:
    """Every bracket of two rows of span and, at p = 2, every square of an
    odd row."""
    rows = span.all_rows()
    squares = [g.square(r) for r in span.odd.rows] if g.field.p == 2 else []
    return _span(g, [g.bracket(rows[a], rows[b])
                     for a in range(len(rows)) for b in range(a, len(rows))] + squares)


def _pairwise_derived(g: Superalgebra) -> GradedSpan:
    return _derived_step(g, _span(g, ({i: g.field.one} for i in range(g.dim))))


def reference_series(g: Superalgebra) -> dict:
    f = g.field
    full = _span(g, ({i: f.one} for i in range(g.dim)))
    derived, cur, sdims = [], full, []
    while True:
        nxt = _derived_step(g, cur)
        sdims.append(nxt.sdim())
        derived.append(nxt)
        if nxt.dim() == cur.dim() or nxt.dim() == 0:
            break
        cur = nxt
    lc, nilpotent = full, False
    while True:
        squares = [g.square(r) for r in lc.odd.rows] if f.p == 2 else []
        nxt = _span(g, [g.bracket({i: f.one}, u) for u in lc.all_rows() for i in range(g.dim)]
                    + squares)
        if nxt.dim() == 0:
            nilpotent = True
            break
        if nxt.dim() == lc.dim():
            break
        lc = nxt
    center = center_rows_reference(g)
    return {
        "derived_sdims": tuple(sdims),
        "center_sdim": _sdim(g, center),
        "center_in_derived_sdim": _sdim(g, _kernel_trick_meet(g, center, derived[0].all_rows())),
        "solvable": derived[-1].dim() == 0,
        "nilpotent": nilpotent,
        "abelian": sdims[0] == (0, 0),
    }


def _homology(cache_dir, key, p, x):
    b = build_catalog_algebra(key, p, cache_dir=cache_dir)
    return ds_homology(b.algebra, b.x_element(x)).homology


ALGEBRAS = {
    "gl(1|1)/p0": lambda c: gl(1, 1, 0),
    "hei(0|2)/p3": lambda c: hei_odd(3),
    "psl(3)/p3": lambda c: psl(3, 0, 3),
    "abelian(2|3)/p5": lambda c: abelian(2, 3, 5),
    "p2-heisenberg": lambda c: _p2_heisenberg(),
    "bgl(3;alpha)/p2": lambda c: build_catalog_algebra("bgl(3;alpha)", 2, cache_dir=c).algebra,
    "gl(2|2)+abelian(1|1)/p0": lambda c: direct_sum(gl(2, 2, 0), abelian(1, 1, 0)),
    "brj(2;3)/x1": lambda c: _homology(c, "brj(2;3)", 3, "x1"),
    "e(7,7)/x1+x3": lambda c: _homology(c, "e(7,7)", 2, "x1+x3"),
}


def test_center_meets_derived_in_a_proper_part():
    # the identity of gl(2|2) has supertrace 0, so it lies in [g, g]; the
    # abelian summand is central and meets [g, g] in 0
    ss = ALGEBRAS["gl(2|2)+abelian(1|1)/p0"](None).structure_series()
    assert (ss["center_sdim"], ss["center_in_derived_sdim"]) == ((2, 1), (1, 0))


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: f"{e.key}@p{e.p}")
def test_center_matches_dense_reference_on_catalog_builds(ent, cache_dir):
    g = build_catalog_algebra(ent.key, ent.p, cache_dir=cache_dir).algebra
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_center_matches_dense_reference_on_subquotients(name):
    g = BUILDERS[name]()
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", sorted(EVERY_FIELD))
def test_center_matches_dense_reference_on_form_algebras(cache_dir, name):
    g = EVERY_FIELD[name](cache_dir)
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.mark.parametrize("name", list(INT64_EDGE))
def test_center_matches_dense_reference_at_the_int64_bound(name):
    g = INT64_EDGE[name][0]()
    assert repr(g.center_rows()) == repr(center_rows_reference(g))


@pytest.fixture(scope="module")
def table_auditor(cache_dir):
    return Auditor(cache_dir=cache_dir)


def _table_rows(name):
    """The rows of a row workload of the benchmark, and its reader of a
    row's reference names."""
    workloads = _perfbench_module("workloads")
    rows = {"ds-exceptional": workloads.exceptional_rows,
            "classical-tables": workloads.classical_rows}[name]()
    return rows, workloads.RowWorkload._labels


def _table_homologies(aud, name):
    """The homology of every row of a row workload of the benchmark."""
    rows, _labels = _table_rows(name)
    return [(row["id"], ds_homology(aud.algebra_of(row), aud.resolve_x(row)[0]).homology)
            for row in rows]


def _table_references(aud):
    """Every reference algebra the rows of both row workloads name and the
    CLI's default references, at each characteristic of the rows."""
    names = set()
    for name in ("ds-exceptional", "classical-tables"):
        rows, labels = _table_rows(name)
        names |= {(row["p"], lab) for row in rows for lab in labels(row)}
    for p in {p for p, _lab in names}:
        for lab in _DEFAULT_REF_NAMES:
            try:
                aud.refs(p).algebra(lab)
            except UsageError:
                continue
            names.add((p, lab))
    return [(f"{lab}@{p}", aud.refs(p).algebra(lab)) for p, lab in sorted(names)]


def _p2_square_algebras():
    """Algebras at p = 2 with squares, which no table row reaches: the
    p = 2 Heisenberg algebra and its homology by the central o3, and g(A)
    of the square nodes osp(1|2) and osp(1|4)."""
    heis = _p2_heisenberg()
    out = [("p2-heisenberg", heis),
           ("p2-heisenberg/o3", ds_homology(heis, {heis.labels.index("o3"): heis.field.one}).homology)]
    return out + [(name, build_g_of_A(HAND_SPECS[name]).algebra)
                  for name in ("osp(1|2)@p2", "osp(1|4)@p2")]


# families of algebras, each read from an Auditor: the spans of
# structure_series stop once they fill a space known to contain them, and
# these reach that rule on the algebras the benchmark's rows compute with
FAMILIES = {
    "rows:ds-exceptional": lambda aud: _table_homologies(aud, "ds-exceptional"),
    "rows:classical-tables": lambda aud: _table_homologies(aud, "classical-tables"),
    "references": _table_references,
    "p2-squares": lambda _aud: _p2_square_algebras(),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(FAMILIES))
def test_series_match_pairwise_reference(request, cache_dir, name):
    if name in ALGEBRAS:
        cases = [(name, ALGEBRAS[name](cache_dir))]
    else:
        cases = FAMILIES[name](request.getfixturevalue("table_auditor"))
    for what, g in cases:
        assert g.structure_series() == reference_series(g), what
        assert g.first_derived_span().all_rows() == _pairwise_derived(g).all_rows(), what


def test_the_inputs_reach_squares_and_a_solvable_non_nilpotent_algebra():
    """The stop rule of the lower central series acts on solvable algebras
    only, and squares enter the spans at p = 2 only."""
    assert all(g.squares for _what, g in _p2_square_algebras())
    ss = ALGEBRAS["gl(1|1)/p0"](None).structure_series()
    assert ss["solvable"] and not ss["nilpotent"]
