import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flipcheck import varieties
from flipcheck.cli import main

REPO = Path(__file__).resolve().parent.parent
CHECKS = REPO / "checks"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- hodge ------------------------------------------------------------------------


def test_hodge_hilb2_column(capsys):
    code, out, _ = run(capsys, "hodge", "hilb2",
                       "--builtin", "quartic-double-solid", "--column")
    assert code == 0
    assert out.strip() == "1 2 4 104 4 2 1"


def test_hodge_hh0(capsys):
    code, out, _ = run(capsys, "hodge", "hh0",
                       "--builtin", "f1-quartic-double-solid")
    assert code == 0 and out.strip() == "222"


def test_hodge_sym2_p1_prints_p2(capsys):
    code, out, _ = run(capsys, "hodge", "sym2", "--builtin", "p1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"dim": 2, "entries": [[0, 0, 1], [1, 1, 1], [2, 2, 1]]}


def test_hodge_hh0_json(capsys):
    code, out, _ = run(capsys, "hodge", "hh0",
                       "--builtin", "quartic-double-solid", "--json")
    assert code == 0 and json.loads(out) == {"hh0": 4}


def test_hodge_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, "hodge", "hh0", "--builtin", "nope")
    assert code == 2 and "unknown builtin" in err


def test_hodge_diamond_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(varieties.curve(2).to_json())
    code, out, _ = run(capsys, "hodge", "hh0", "--diamond", str(path))
    assert code == 0 and out.strip() == "2"


def test_hodge_invalid_diamond_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "entries": [[1, 0, 3]]}')  # not symmetric
    code, _, err = run(capsys, "hodge", "hh0", "--diamond", str(bad))
    assert code == 2 and "Hodge-symmetric" in err
    missing = tmp_path / "missing.json"
    code, _, _ = run(capsys, "hodge", "hh0", "--diamond", str(missing))
    assert code == 2


def test_hodge_diamond_entries_not_a_list_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": 5}')
    code, out, err = run(capsys, "hodge", "hilb2", "--diamond", str(bad))
    assert code == 2 and out == ""
    assert "'entries' must be a list" in err


def test_hodge_diamond_booleans_are_not_integers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": true, "entries": [[0, 0, true], [1, 1, true]]}')
    code, out, err = run(capsys, "hodge", "hilb2", "--diamond", str(bad))
    assert code == 2 and out == ""
    assert "'dim' must be an integer" in err
    bad.write_text('{"dim": 1, "entries": [[0, 0, true], [1, 1, 1]]}')
    code, out, err = run(capsys, "hodge", "hilb2", "--diamond", str(bad))
    assert code == 2 and out == ""
    assert "bad entry row" in err


def test_hodge_hilb2_rejects_point_builtin(capsys):
    code, _, err = run(capsys, "hodge", "hilb2", "--builtin", "point")
    assert code == 2 and "not modelled" in err


# -- fano -------------------------------------------------------------------------


def test_fano_dims_gr25_row(capsys):
    code, out, _ = run(capsys, "fano", "dims", "--family", "gr25", "--n", "5")
    assert code == 0
    values = [line.split("=")[1].strip() for line in out.splitlines()]
    assert values == ["6", "4", "3", "0"]


def test_fano_dims_gr25_empty_cells(capsys):
    code, out, _ = run(capsys, "fano", "dims", "--family", "gr25", "--n", "2")
    assert code == 0
    assert out.count("empty") == 3


def test_fano_dims_cubic(capsys):
    code, out, _ = run(capsys, "fano", "dims", "--family", "cubic",
                       "--n", "3", "--k", "1")
    assert code == 0 and "= 2" in out
    code, _, err = run(capsys, "fano", "dims", "--family", "cubic", "--n", "3")
    assert code == 2 and "--k" in err


def test_fano_codim_grid(capsys):
    code, out, _ = run(capsys, "fano", "codim", "--grid")
    assert code == 0
    assert "cubic: 196/196 identity cells pass" in out
    assert "gr25: 8/8 identity cells pass" in out


def test_fano_codim_single(capsys):
    code, out, _ = run(capsys, "fano", "codim", "--family", "cubic",
                       "--n", "3", "--k", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])


@pytest.mark.parametrize("argv, message", [
    (("dims", "--family", "cubic", "--n", "0", "--k", "0"),
     "n must be positive"),
    (("dims", "--family", "two-quadrics", "--n", "-2", "--k", "1"),
     "n must be positive"),
    (("codim", "--family", "cubic", "--n", "3", "--k", "5"),
     "k = 5 exceeds n = 3"),
])
def test_fano_invalid_cell_exits_2(capsys, argv, message):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "fano", *argv, *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fano_splittings(capsys):
    code, out, _ = run(capsys, "fano", "splittings", "--n", "2")
    assert code == 0
    assert "1 splitting type" in out and "O(-1)" in out


def test_fano_sodcounts(capsys):
    code, out, _ = run(capsys, "fano", "sodcounts", "--family", "cubic",
                       "--n", "3", "--k", "0")
    assert code == 0
    assert "{D_F1:1, D_PQ:1}" in out
    assert "{D_F0:5, D_F1:1}" in out


@pytest.mark.parametrize("family", ["cubic", "two-quadrics", "gr25"])
def test_fano_sodcounts_without_k_exits_2(capsys, family):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "fano", "sodcounts", "--family", family,
                             "--n", "7", *extra)
        assert (code, out, err) == (
            2, "", "error: --k (the plane dimension) is required for this family\n")


# -- sod --------------------------------------------------------------------------


def test_sod_check_degree2_script(capsys):
    code, out, _ = run(capsys, "sod", "check",
                       str(CHECKS / "degree2-surface.sod"))
    assert code == 0
    assert "65 vs 56 INCONCLUSIVE" in out


def test_sod_check_json(capsys):
    code, out, _ = run(capsys, "sod", "check",
                       str(CHECKS / "degree2-surface.sod"), "--json")
    assert code == 0
    assert json.loads(out) == {"ambient_hh0": 65, "candidate_hh0": 56,
                               "verdict": "INCONCLUSIVE"}


def test_sod_check_rejects_expressions(tmp_path, capsys):
    script = tmp_path / "bad.sod"
    script.write_text("1 + L\n{Dpt:1}\n{Dpt:2}\n")
    code, _, err = run(capsys, "sod", "check", str(script))
    assert code == 2 and "rules and ledgers" in err


def test_sod_check_requires_two_ledgers(tmp_path, capsys):
    script = tmp_path / "one.sod"
    script.write_text("{Dpt:1}\n")
    code, _, err = run(capsys, "sod", "check", str(script))
    assert code == 2 and "exactly two ledgers" in err


def test_sod_check_unassigned_atom(tmp_path, capsys):
    script = tmp_path / "atoms.sod"
    script.write_text("{DMystery:1}\n{Dpt:2}\n")
    code, _, err = run(capsys, "sod", "check", str(script))
    assert code == 2 and "DMystery" in err


def test_sod_check_missing_file(capsys):
    code, _, _ = run(capsys, "sod", "check", "no-such-file.sod")
    assert code == 2


def test_sod_conjecture_consistency(capsys):
    code, out, _ = run(capsys, "sod", "conjecture-consistency",
                       "--n-odd-max", "15")
    assert code == 0
    assert "SKIP n=3" in out
    for n in range(5, 16, 2):
        assert f"PASS n={n}" in out


def test_sod_conjecture_consistency_rejects_small_n_max(capsys):
    for n_max in ("2", "-3"):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "sod", "conjecture-consistency",
                                 "--n-odd-max", n_max, *extra)
            assert code == 2 and out == ""
            assert err == f"error: --n-odd-max must be at least 3, got {n_max}\n"


def test_sod_obstruction_quartic_double_solid(capsys):
    code, out, _ = run(capsys, "sod", "obstruction",
                       "--builtin", "quartic-double-solid")
    assert code == 0
    assert out.strip() == "OBSTRUCTED (222 > 118)"


def test_sod_obstruction_degree2(capsys):
    code, out, _ = run(capsys, "sod", "obstruction",
                       "--builtin", "degree2-del-pezzo-surface")
    assert code == 0
    assert out.strip() == "INCONCLUSIVE (56 <= 65)"


def test_sod_obstruction_matches_verify_all_report(capsys):
    _, out, _ = run(capsys, "verify-all", "--json")
    reports = {r["name"]: r for r in json.loads(out)}
    for builtin, check in [
            ("quartic-double-solid", "sod/obstruction-quartic-double-solid"),
            ("degree2-del-pezzo-surface", "sod/degree2-surface-obstruction")]:
        code, out, _ = run(capsys, "sod", "obstruction", "--builtin", builtin,
                           "--json")
        assert code == 0
        report = reports[check]
        assert json.loads(out) == {**report["inputs"],
                                   "verdict": report["computed"]}


def test_sod_obstruction_unknown(capsys):
    code, _, err = run(capsys, "sod", "obstruction", "--builtin", "nope")
    assert code == 2 and "unknown obstruction scenario" in err


# -- motive -----------------------------------------------------------------------


def test_motive_check_scripts(capsys):
    for name in ("flip-derivation.mot", "hilbert-square-classes.mot"):
        code, out, _ = run(capsys, "motive", "check", str(CHECKS / name))
        assert code == 0
        assert "FAIL" not in out


def test_motive_check_nonzero_statement(tmp_path, capsys):
    script = tmp_path / "bad.mot"
    script.write_text("1 + L - 1\n")
    code, out, _ = run(capsys, "motive", "check", str(script))
    assert code == 1 and "FAIL statement 1: L" in out


def test_motive_eval(tmp_path, capsys):
    script = tmp_path / "eval.mot"
    script.write_text("Sym2(1 + L)\n(1+L)*(1+L)\n")
    code, out, _ = run(capsys, "motive", "eval", str(script))
    assert code == 0
    assert out.splitlines() == ["1 + L + L^2", "1 + 2*L + L^2"]


def test_motive_rejects_ledger_statements(tmp_path, capsys):
    script = tmp_path / "mixed.mot"
    script.write_text("{Dpt:1}\n")
    code, _, err = run(capsys, "motive", "check", str(script))
    assert code == 2 and "only contain expressions" in err


@pytest.mark.parametrize("command", ["sod", "motive"])
def test_script_not_utf8_exits_2(tmp_path, capsys, command):
    script = tmp_path / "latin1.txt"
    script.write_bytes(b"\xff{Dpt:1}\n")
    code, out, err = run(capsys, command, "check", str(script))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Python converts no int of over 4300 digits (by default) to text: a literal of
# 4000 nines parses, but its square cannot be printed
_NINES = "9" * 4000
_HUGE_HH0 = f"A => {{Dpt:{_NINES}}}\n{{A:{_NINES}}}\n{{Dpt:1}}\n"


@pytest.mark.parametrize("text, argv", [
    (f"1\nSym2({_NINES})\n", ("motive", "eval")),
    (f"0\nSym2({_NINES})\n", ("motive", "check")),
    (_HUGE_HH0, ("sod", "check")),
    (_HUGE_HH0, ("sod", "check", "--json")),
], ids=["motive-eval", "motive-check", "sod-check", "sod-check-json"])
def test_result_too_long_to_print_exits_2(tmp_path, capsys, text, argv):
    """No partial output and no traceback: the whole output is built
    before the first line is printed."""
    script = tmp_path / "huge.txt"
    script.write_text(text)
    code, out, err = run(capsys, *argv[:2], str(script), *argv[2:])
    assert code == 2 and out == ""
    assert err == "error: result holds an integer too long to print\n"


_ONES = "1" * 5000


@pytest.mark.parametrize("text, command, where", [
    (f"1 +\n  {_ONES}*L\n", "motive", "line 2, column 3"),
    (f"L^{_ONES}\n", "motive", "line 1, column 3"),
    (f"{{Dpt:1}}\n{{Dpt: {_ONES}}}\n", "sod", "line 2, column 7"),
], ids=["coefficient", "exponent", "multiplicity"])
def test_integer_literal_too_long_exits_2_at_its_position(
        tmp_path, capsys, text, command, where):
    script = tmp_path / "long.txt"
    script.write_text(text)
    code, out, err = run(capsys, command, "check", str(script))
    assert code == 2 and out == ""
    assert err == f"error: {where}: integer literal too long (5000 digits)\n"


# -- verify-all ----------------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_all_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify-all")
    _, second, _ = run(capsys, "verify-all")
    assert first == second
    assert "\x1b" not in first  # no color, NO_COLOR honored trivially


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)
    names = [r["name"] for r in reports]
    assert "hodge/hilb2-quartic-double-solid-column" in names
    assert all(r["provenance"] in ("paper", "derived", "trivial")
               for r in reports)


def test_verify_all_fault_injection(monkeypatch, capsys):
    corrupted = """
    {
      "provenance": "corrupted for the fault-injection test",
      "dim": 3,
      "entries": [[0, 0, 1], [1, 1, 1], [1, 2, 9], [2, 1, 9], [2, 2, 1], [3, 3, 1]]
    }
    """
    monkeypatch.setitem(varieties._ASSETS, "quartic-double-solid", corrupted)
    code, out, _ = run(capsys, "verify-all")
    assert code == 1
    assert "FAIL hodge/hilb2-quartic-double-solid-column" in out


# -- usage ------------------------------------------------------------------------


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["hodge", "hilb2"])  # no source given
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nope"])
    assert info.value.code == 2


# -- snapshots -----------------------------------------------------------------------

GOLDEN = REPO / "tests" / "golden"


@pytest.mark.parametrize("snapshot, argv", [
    ("verify-all.txt", ("verify-all",)),
    ("verify-all.json", ("verify-all", "--json")),
    ("motive-check-flip-derivation.txt",
     ("motive", "check", str(CHECKS / "flip-derivation.mot"))),
    ("motive-check-hilbert-square-classes.txt",
     ("motive", "check", str(CHECKS / "hilbert-square-classes.mot"))),
    ("sod-check-degree2-surface.txt",
     ("sod", "check", str(CHECKS / "degree2-surface.sod"))),
    ("fano-dims-gr25-n5.json",
     ("fano", "dims", "--family", "gr25", "--n", "5", "--json")),
    ("fano-codim-cubic-n3-k0.json",
     ("fano", "codim", "--family", "cubic", "--n", "3", "--k", "0", "--json")),
    ("sod-conjecture-consistency-15.json",
     ("sod", "conjecture-consistency", "--n-odd-max", "15", "--json")),
])
def test_output_matches_committed_snapshot(capsys, snapshot, argv):
    """Stdout is byte-identical to the output committed under
    tests/golden/, so a change to any layer cannot alter it unnoticed."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / snapshot).read_bytes()


# -- start-up ------------------------------------------------------------------------


def test_import_leaves_out_typing_and_random():
    """Importing the CLI loads none of ``typing``, ``random``,
    ``dataclasses`` and ``inspect``: the annotations are strings, only the
    round-trip check draws random values, and the AST nodes are plain
    slotted classes, so a process pays for none of them at start-up."""
    code = ("import sys, flipcheck.cli; print(sorted({'typing', 'random', "
            "'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
