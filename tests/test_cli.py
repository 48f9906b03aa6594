"""CLI surface: subcommands, flags, exit codes, format agreement."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from dslie import audit
from dslie.audit import DISCREPANCY, load_expected, run_audit
from dslie.classical import parse_key
from dslie.cli import main, table_shape
from dslie.references import ReferenceBank
from dslie.serialize import CacheError


def run(capsys, argv, cache_dir=None):
    if cache_dir and "--cache-dir" not in argv:
        argv = argv + ["--cache-dir", cache_dir]
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_summary(capsys, cache_dir):
    code, out, _ = run(capsys, ["build", "brj(2;5)", "-p", "5"], cache_dir)
    assert code == 0
    assert "sdim 10|12" in out and "10 positive roots" in out


def test_build_unknown_key(capsys):
    code, _out, err = run(capsys, ["build", "nosuch", "-p", "3"])
    assert code == 1
    assert "available" in err


def test_ds_single(capsys, cache_dir):
    code, out, _ = run(capsys, ["ds", "psl(2|2)", "-p", "3", "--x", "x1"], cache_dir)
    assert code == 0
    assert "6" in out and "K^{0|2}" in out


def test_ds_rejects_even(capsys, cache_dir):
    code, _out, err = run(capsys, ["ds", "sl(2)", "-p", "0", "--x", "h"], cache_dir)
    assert code == 2
    assert "not homological" in err


def test_ds_rejects_zero_element(capsys, cache_dir):
    code, _out, err = run(capsys, ["ds", "gl(2|2)", "-p", "2", "--x", "x1+x1"], cache_dir)
    assert code == 2
    assert "not homological: x = 0" in err


def test_ds_rejection_states_square(capsys, cache_dir):
    code, _out, err = run(capsys, ["ds", "brj(2;5)", "-p", "5", "--x", "x2"],
                          cache_dir)
    assert code == 2
    assert "square" in err


def test_defect_brj(capsys, cache_dir):
    code, out, _ = run(capsys, ["defect", "brj(2;5)", "-p", "5",
                                "--samples", "10"], cache_dir)
    assert code == 0
    assert "g_max 1, df 1, ndf 1" in out


def test_table_square(capsys, cache_dir):
    code, out, _ = run(capsys, ["table", "psl-square", "-p", "3", "-n", "2"],
                       cache_dir)
    assert code == 0
    assert "psl(2|2)" in out and "K^{0|2}" in out


def test_formats_agree(capsys, cache_dir):
    _c, text, _ = run(capsys, ["ds", "brj(2;5)", "-p", "5", "--x", "x1"], cache_dir)
    _c, csvout, _ = run(capsys, ["ds", "brj(2;5)", "-p", "5", "--x", "x1",
                                 "--format", "csv"], cache_dir)
    _c, recs, _ = run(capsys, ["ds", "brj(2;5)", "-p", "5", "--x", "x1",
                               "--format", "records"], cache_dir)
    rec = json.loads(recs.strip().splitlines()[0])
    rows = list(csv.DictReader(io.StringIO(csvout)))
    assert rec["rank_ad"] == 10
    assert rows[0]["rank_ad"] == "10"
    assert "10" in text
    assert rec["label"] == rows[0]["label"] == "K^{0|2}"


def test_determinism(capsys, cache_dir):
    argv = ["defect", "bgl(4;alpha)", "-p", "2", "--samples", "5",
            "--seed", "7", "--format", "records"]
    _c, out1, _ = run(capsys, argv, cache_dir)
    _c, out2, _ = run(capsys, argv, cache_dir)
    assert out1 == out2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog", "-p", "5"])
    assert code == 0
    assert "brj(2;5)" in out and "el(5;5)" in out


def _python_m_dslie(*argv):
    """``python -m dslie argv`` in a fresh interpreter, with the library's
    source directory on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dslie", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_dslie_runs_main(capsys):
    """``python -m dslie`` prints what main prints and exits with its code."""
    code, out, _ = run(capsys, ["catalog", "-p", "5"])
    proc = _python_m_dslie("catalog", "-p", "5")
    assert code == 0 and (proc.returncode, proc.stdout) == (code, out)
    bad = _python_m_dslie("catalog", "--no-such-option")
    assert bad.returncode == 1 and "unrecognized arguments" in bad.stderr


def test_audit_subset_exit_codes(capsys, cache_dir):
    code, out, _ = run(capsys, ["audit", "--keys", "brj25", "brj23"], cache_dir)
    assert code == 0
    assert "match" in out
    # a whitelisted-discrepancy table still exits 0
    code2, out2, _ = run(capsys, ["audit", "--keys", "el55"], cache_dir)
    assert code2 == 0
    assert "documented" in out2


def test_computation_failure_on_whitelisted_row_is_exit_3(monkeypatch, capsys, cache_dir):
    """The whitelist excuses printed values, never a value that was not
    computed: a failing computation is a discrepancy on any row."""
    def fail(g, x):
        raise RuntimeError("injected failure")
    monkeypatch.setattr(audit, "ds_homology", fail)
    row = next(r for r in load_expected()["rows"] if r["id"] == "el55/class32")
    assert row.get("whitelist")
    outcomes, code = run_audit([row], cache_dir=cache_dir)
    assert (outcomes[0].status, outcomes[0].detail, code) == \
        (DISCREPANCY, "computation failed: injected failure", 3)
    code, out, err = run(capsys, ["audit", "--keys", "el55"], cache_dir)
    assert code == 3 and "computation failed: injected failure" in out and err == ""
    # the exceptional table reports the row's status on its one line
    code, out, err = run(capsys, ["table", "exceptional", "-p", "5"], cache_dir)
    line = next(ln for ln in out.splitlines() if ln.startswith("el55/class32"))
    assert code == 0 and line.split()[-1] == DISCREPANCY and err == ""


def test_audit_usage(capsys):
    code, _out, err = run(capsys, ["audit"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["ds", "brj(2;3)", "-p", "3", "--x", "x999"],
    ["ds", "brj(2;3)", "-p", "3", "--x", "y1"],
    ["ds", "gl(2|2)", "-p", "3", "--x", "x9"],
    ["ds", "gl(2|2)", "-p", "4", "--x", "x1"],
    ["ds", "brj(2;3)", "-p", "3", "--x", "x1", "--module", "1,q"],
    ["ds", "brj(2;3)", "-p", "3", "--x", "x1", "--module", "1"],
    ["build", "nosuch", "-p", "3"],
    ["ds", "gl(2|2)", "-p", "3", "--sweep"],
    ["ds", "psl(2|3)", "-p", "3", "--x", "x1"],
    ["table", "psl-square", "-p", "3", "-n", "0"],
    ["table", "psl-square", "-p", "3", "-n", "9"],
    ["table", "psl-shifted", "-p", "3", "-n", "1", "-k", "-1"],
])
def test_bad_input_is_one_line_usage_error(capsys, cache_dir, argv):
    code, out, err = run(capsys, argv, cache_dir)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["table", "exceptional", "-p", "4"],
    ["catalog", "-p", "4"],
    ["defect", "brj(2;5)", "-p", "5", "--samples", "-3"],
    ["ds", "brj(2;5)", "-p", "5", "--sweep", "--samples", "-3"],
    ["audit", "--keys", "nosuch"],
])
def test_input_that_selects_nothing_is_a_usage_error(capsys, argv):
    """A characteristic that is not 0 or a prime, a negative sample count
    and audit keys that match no row are refused before any work, instead
    of printing nothing (or an empty summary) with exit 0."""
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["build", "brj(2;5)", "-p", "5"],
    ["ds", "brj(2;5)", "-p", "5", "--x", "x1"],
    ["audit", "--keys", "brj(2;3)"],
])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_cache_directory_that_cannot_be_created_is_a_usage_error(
        capsys, monkeypatch, tmp_path, argv, via):
    """A cache directory under a regular file, from --cache-dir or from
    $DSLIE_CACHE_DIR: one usage-error line that names it, exit 1."""
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / "file" / "cache")
    monkeypatch.delenv("DSLIE_CACHE_DIR", raising=False)
    if via == "env":
        monkeypatch.setenv("DSLIE_CACHE_DIR", bad)
    code, out, err = run(capsys, argv + (["--cache-dir", bad] if via == "flag" else []))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")
    assert bad in err


def test_cache_entry_replaced_by_a_directory(capsys, tmp_path):
    """An entry that is a directory cannot be read, so it is a miss; the
    rebuilt algebra cannot be stored there, which is one usage-error line
    that names the entry, exit 1."""
    cd = str(tmp_path)
    assert run(capsys, ["build", "brj(2;5)", "-p", "5"], cd)[0] == 0
    (entry,) = tmp_path.iterdir()
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, ["build", "brj(2;5)", "-p", "5"], cd)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")
    assert str(entry) in err
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]  # no temporary file left


def test_audit_with_an_entry_replaced_by_a_directory(capsys, tmp_path):
    """Under audit too, an entry that cannot be written is the usage-error
    line with exit 1, not a failed row (exit 3)."""
    cd = str(tmp_path)
    assert run(capsys, ["build", "brj(2;5)", "-p", "5"], cd)[0] == 0
    (entry,) = tmp_path.iterdir()
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, ["audit", "--keys", "brj25"], cd)
    assert code == 1
    assert "computation failed" not in out
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")
    assert str(entry) in err


def test_audit_reference_that_cannot_be_stored_is_a_usage_error(monkeypatch, capsys, cache_dir):
    """A reference whose build cannot be stored is not an unavailable
    reference: a whitelisted row does not come out documented, exit 0."""
    def unwritable(self, name):
        raise CacheError(f"cache entry for {name} cannot be written")
    monkeypatch.setattr(ReferenceBank, "fingerprint", unwritable)
    code, out, err = run(capsys, ["audit", "--keys", "el55"], cache_dir)
    assert code == 1
    assert "documented" not in out
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: cache entry")


def test_table_range_covers_shipped_tables():
    shapes = set()
    for row in load_expected()["rows"]:
        fam = parse_key(row["key"])
        if fam is None or not row["table"].startswith(("square-", "shifted-")):
            continue
        _f, a, b = fam
        p = row["p"]
        if row["table"].startswith("square-"):
            shapes.add(("psl-square", a, 1, p, a, b))
        else:
            shapes.add(("psl-shifted", a, (b - a) // p, p, a, b))
    assert len(shapes) > 20
    for family, n, k, p, a, b in sorted(shapes):
        assert table_shape(family, n, k, p) == (a, b)
