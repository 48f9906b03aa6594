"""Element expressions: the x forms of the expected tables and the x<k>/h<k>
grammar of Superalgebra.element."""

import pytest

from dslie.audit import Auditor, load_expected
from dslie.classical import gl, sl
from dslie.fields import UsageError
from dslie.tables import chain_element

# Auditor.resolve_x on one row of each x form, recorded before the element
# parsers were merged: sorted (label, coefficient) pairs and the description.
PINNED = {
    "g16/x3+x12": ([("x12", "1"), ("x3", "1")], "x3+x12"),                 # expr on g
    "bgl3s/x1+x3": ([("x1", "1"), ("x3", "1")], "x1+x3"),                  # expr on sub
    "sq2/gl/p0/k2": ([("E1,2", "1"), ("E3,4", "1")], "chain2"),            # chain
    "adhom/x": ([("E1,2", "1"), ("E3,4", "1"), ("E5,6", "1")],
                "chain_mixed1-3-5"),                                       # chain_mixed
    "g23s/x1": ([("x1", "1")], "class(rank=10)"),                          # class_rank on sub
}


def test_resolve_x_pinned(cache_dir):
    rows = {r["id"]: r for r in load_expected()["rows"]}
    aud = Auditor(cache_dir=cache_dir)
    for rid, (pairs, desc) in PINNED.items():
        row = rows[rid]
        el, got_desc = aud.resolve_x(row)
        g = aud.algebra_of(row)
        assert sorted((g.labels[i], str(c)) for i, c in el.items()) == pairs, rid
        assert got_desc == desc, rid


def test_matrix_realization_alias():
    g = sl(2, 0, 0)
    assert g.element("h") == {g.labels.index("E1,1"): g.field.one}
    assert g.element("h1") == g.element("h")
    g = gl(2, 4, 3)
    assert g.element("x1+x3") == chain_element(g, 2)
    assert g.element("x2") == {g.labels.index("E2,3"): g.field.one}


@pytest.mark.parametrize("expr", ["y1", "", "x", "x1+", "2x1", "x1-x3", "x9", "h7"])
def test_bad_expression_is_usage_error(expr):
    with pytest.raises(UsageError):
        gl(2, 2, 3).element(expr)
