"""Identification and reference-bank behavior."""

import collections

import pytest

from dslie import catalog, tables
from dslie.audit import MATCH, Auditor, load_expected, run_audit
from dslie.catalog import build_catalog_algebra
from dslie.cli import _default_refs, main
from dslie.ds import describe_fingerprint, ds_homology, identify
from dslie.fields import UsageError
from dslie.references import ReferenceBank
from dslie.superalgebra import Fingerprint, Superalgebra
from dslie.tables import family_algebra


def test_reference_bank_names(cache_dir):
    bank = ReferenceBank(3, cache_dir=cache_dir)
    assert bank.algebra("psl(3)").sdim == (7, 0)
    assert bank.algebra("gl(1|2)").sdim == (5, 4)
    assert bank.algebra("K^{2|0}").sdim == (2, 0)
    assert bank.algebra("psl(3) (+) psl(3)").sdim == (14, 0)
    assert bank.algebra("hei(0|2)").sdim == (1, 2)
    assert bank.algebra("osp(1|2)").sdim == (3, 2)
    assert bank.algebra("gl(2)").sdim == (4, 0)
    with pytest.raises(UsageError, match="unknown reference algebra 'nosuch\\(9\\)'"):
        bank.algebra("nosuch(9)")


def test_reference_bank_shares_the_family_cache():
    """A gl/sl/psl reference is the algebra the chain tables use, built once."""
    bank = ReferenceBank(3)
    assert bank.algebra("gl(2|2)") is family_algebra("gl", 2, 2, 3)
    assert family_algebra("psl", 3, 0, 3) is bank.algebra("psl(3)")


def test_reference_subquotient(cache_dir):
    bank = ReferenceBank(3, cache_dir=cache_dir)
    h = bank.algebra("g(2,3)^(1)/c")
    assert h.sdim == (10, 14)


def test_audit_makes_each_algebra_once(monkeypatch):
    """The audit resolves every name through one ReferenceBank per
    characteristic: g23s/x1 runs on g(2,3)^(1)/c and g36/x1 is labelled
    by it, and g(2,3) is built once and its g^(1)/c taken once."""
    builds, derived = collections.Counter(), []
    build_g_of_A = catalog.build_g_of_A
    first_derived_mod_center = Superalgebra.first_derived_mod_center

    def counted_build(spec, **kw):
        builds[spec.key, spec.p] += 1
        return build_g_of_A(spec, **kw)

    def counted_derived(self):
        derived.append(self.dim)
        return first_derived_mod_center(self)
    monkeypatch.setattr(catalog, "build_g_of_A", counted_build)
    monkeypatch.setattr(Superalgebra, "first_derived_mod_center", counted_derived)
    rows = [r for r in load_expected()["rows"] if r["id"] in ("g23s/x1", "g36/x1")]
    outcomes, code = run_audit(rows)  # no cache: every build is counted
    assert [o.status for o in outcomes] == [MATCH, MATCH] and code == 0
    assert builds == {("g(2,3)", 3): 1, ("g(3,6)", 3): 1}
    assert derived == [26]  # one g^(1)/c, of g(2,3)
    aud = Auditor(cache_dir=None)
    assert aud.build("g(2,3)", 3) is aud.refs(3).build("g(2,3)")
    assert aud.subquotient("g(2,3)", 3) is aud.refs(3).algebra("g(2,3)^(1)/c")


def test_identify_trivial_and_abelian(cache_dir):
    b = build_catalog_algebra("brj(2;5)", 5, cache_dir=cache_dir)
    res = ds_homology(b.algebra, b.x_element("x1"))
    assert identify(res, []) == "K^{0|2}"


def test_identify_prefers_reference_name(cache_dir):
    bank = ReferenceBank(3, cache_dir=cache_dir)
    b = build_catalog_algebra("g(1,6)", 3, cache_dir=cache_dir)
    res = ds_homology(b.algebra, b.x_element("x3"))
    assert identify(res, bank.pairs(["psl(3)"])) == "psl(3)"
    # unmatched references fall back to a structure descriptor
    out = identify(res, bank.pairs(["psl(2|2)"]))
    assert "derived sdims" in out


def test_descriptor_format():
    fp = Fingerprint(sdim=(8, 2), derived_sdims=((7, 0), (1, 0), (0, 0)),
                     center_sdim=(1, 2), center_in_derived_sdim=(1, 0),
                     forms_dim=1, solvable=True, nilpotent=False, abelian=False)
    assert describe_fingerprint(fp) == \
        "solvable; dim c = 1|2; derived sdims [7|0, 1|0, 0|0]"


def test_reference_errors_are_not_swallowed(monkeypatch, cache_dir):
    """Only a UsageError (a name the field cannot build) drops a reference;
    any other error surfaces."""
    row = next(r for r in load_expected()["rows"] if r["id"] == "g16/x3")
    outcomes, _code = run_audit([row], cache_dir=cache_dir)
    assert outcomes[0].status == MATCH

    def broken(self, name):
        raise IndexError("broken reference")
    monkeypatch.setattr(ReferenceBank, "_construct", broken)
    with pytest.raises(IndexError):
        _default_refs(ReferenceBank(3, cache_dir=cache_dir), {(7, 0)})
    outcomes, code = run_audit([row], cache_dir=cache_dir)
    assert outcomes[0].detail == "computation failed: broken reference" and code == 3


def test_chain_table_skips_only_names_the_field_cannot_build(monkeypatch, cache_dir):
    """chain_table drops a reference name only on a UsageError (psl(3)
    has no center at p = 2); a ValueError from _construct surfaces."""
    monkeypatch.setattr(tables, "chain_reference_names", lambda *args: ["psl(3)", "gl(1|1)"])
    (row,) = tables.chain_table("gl", 2, 2, 2, ReferenceBank(2, cache_dir=cache_dir))[:1]
    assert row["label"] == "gl(1|1)"

    def broken(self, name):
        raise ValueError("broken reference")
    monkeypatch.setattr(ReferenceBank, "_construct", broken)
    with pytest.raises(ValueError, match="broken reference"):
        tables.chain_table("gl", 2, 2, 2, ReferenceBank(2, cache_dir=cache_dir))


def test_ds_fingerprints_only_references_of_matching_sdim(monkeypatch, capsys, cache_dir):
    seen = []
    fingerprint = ReferenceBank.fingerprint

    def spy(self, name):
        seen.append(self.algebra(name).sdim)
        return fingerprint(self, name)
    monkeypatch.setattr(ReferenceBank, "fingerprint", spy)
    for argv, sdim, last in [
            (["ds", "gl(2|2)", "-p", "0", "--x", "x1"], (2, 2),
             "gl(2|2)  x1  6        2|2      gl(1|1)"),
            (["ds", "g(1,6)", "-p", "3", "--sweep", "--samples", "10"], (7, 0),
             "g(1,6)   x3  14       7|0      psl(3)")]:
        seen.clear()
        assert main(argv + ["--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last  # as before the filter
        assert seen and set(seen) == {sdim}
