import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flipcheck import cli, dsl, fano, sod, varieties
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


@pytest.mark.parametrize("op", ["sym2", "hilb2"])
def test_hodge_diagonal_only_builtin_answers_hh0_alone(capsys, op):
    # h^{1,0} = 10 is missing from the table, so Sym^2 would drop 10 * 10
    for extra in ((), ("--json",), ("--column",)):
        code, out, err = run(capsys, "hodge", op, "--builtin",
                             "f1-quartic-double-solid", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "only hh0" in err


def test_hodge_hh0_json(capsys):
    code, out, _ = run(capsys, "hodge", "hh0",
                       "--builtin", "quartic-double-solid", "--json")
    assert code == 0 and json.loads(out) == {"hh0": 4}


def test_hodge_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, "hodge", "hh0", "--builtin", "nope")
    assert code == 2 and "unknown builtin" in err


def test_hodge_builtin_names_take_ascii_digits_only(capsys):
    # U+0663 and U+0662 are Arabic-Indic digits, which a str \d matches
    for name in ("p\u0663", "curve-g\u0662"):
        code, out, err = run(capsys, "hodge", "hh0", "--builtin", name)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown builtin {name!r}")


def test_hodge_diamond_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(varieties.curve(2).to_json_dict()))
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


def test_hodge_deeply_nested_diamond_is_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for op in ("hh0", "sym2", "hilb2"):
        code, out, err = run(capsys, "hodge", op, "--diamond", str(deep))
        assert (code, out, err) == \
            (2, "", "error: diamond JSON is nested too deeply\n")


def test_hodge_diamond_entries_not_a_list_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": 5}')
    code, out, err = run(capsys, "hodge", "hilb2", "--diamond", str(bad))
    assert code == 2 and out == ""
    assert "'entries' must be a list" in err


@pytest.mark.parametrize("text", ["[1, 2]", '"dim"', "null", "3"],
                         ids=["list", "string", "null", "number"])
def test_hodge_diamond_not_an_object_is_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "hodge", "hh0", "--diamond", str(bad))
    assert (code, out, err) == (2, "", "error: diamond JSON must be an object "
                                "with 'dim' and 'entries'\n")


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


def test_hodge_bad_row_error_names_its_index(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    deep = "[" * 900 + "]" * 900
    bad.write_text('{"dim": 1, "entries": [[0, 0, 1], [1, 1, 1], %s]}' % deep)
    code, out, err = run(capsys, "hodge", "hh0", "--diamond", str(bad))
    assert (code, out, err) == \
        (2, "", "error: bad entry row 2; want [p, q, value]\n")


def test_hodge_diamond_repeated_rows_add_up(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text('{"dim": 1, "entries": [[0, 0, 1], [1, 1, 1], [0, 0, 2],'
                    ' [1, 1, 2]]}')
    code, out, _ = run(capsys, "hodge", "sym2", "--diamond", str(path),
                       "--column")
    assert (code, out) == (0, "6 9 6\n")  # Sym^2 of the column 3 3


def test_hodge_diamond_negative_row_is_refused_before_summing(tmp_path,
                                                              capsys):
    path = tmp_path / "rows.json"
    path.write_text('{"dim": 1, "entries": [[0, 0, 1], [1, 1, 2], [1, 1, -1],'
                    ' [1, 1, 1]]}')
    code, out, err = run(capsys, "hodge", "hh0", "--diamond", str(path))
    assert (code, out, err) == (2, "", "error: negative entry h^(1,1) = -1\n")


@pytest.mark.parametrize("text", [
    '{"dim": 0, "entries": [[0, 0, 1%s]]}' % ("0" * 5000),
    '{"dim": 1%s, "entries": []}' % ("0" * 5000),
], ids=["entry", "dim"])
def test_hodge_diamond_integer_too_long_exits_2(tmp_path, capsys, text):
    # 5001 digits are more than Python turns into an int
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, "hodge", "hh0", "--diamond", str(path))
    assert (code, out, err) == \
        (2, "", "error: diamond JSON integer too long (5001 digits)\n")


@pytest.mark.parametrize("entries", [[], [[0, 0, 1], [10**12, 10**12, 1]]])
def test_hodge_diamond_dimension_bound(tmp_path, capsys, entries):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"dim": 10**12, "entries": entries}))
    for op in ("hh0", "sym2", "hilb2"):
        code, out, err = run(capsys, "hodge", op, "--diamond", str(huge))
        assert (code, out, err) == \
            (2, "", "error: 'dim' must be at most 100000\n")


def test_hodge_builtin_pn_dimension_bound(capsys):
    assert varieties.builtin("p100000").dim == 100_000
    assert varieties.builtin("p" + "0" * 5000 + "7").dim == 7
    # 5001 digits are more than Python turns into an int
    for name in ("p100001", "p" + "9" * 30, "p1" + "0" * 5000):
        code, out, err = run(capsys, "hodge", "hh0", "--builtin", name)
        assert (code, out, err) == \
            (2, "", "error: builtin p<n> needs n <= 100000\n")


def test_hodge_builtin_genus_too_long_exits_2(capsys):
    # 5001 digits are more than Python turns into an int
    code, out, err = run(capsys, "hodge", "hh0", "--builtin",
                         "curve-g1" + "0" * 5000)
    assert (code, out, err) == \
        (2, "", "error: builtin curve-g<g>: genus too long (5001 digits)\n")


@pytest.mark.parametrize("op", ["sym2", "hilb2"])
@pytest.mark.parametrize("extra", [(), ("--json",), ("--column",)],
                         ids=["text", "json", "column"])
def test_hodge_result_too_long_to_print_exits_2(capsys, op, extra):
    # h^{1,0} of 4000 digits parses; h^{1,1} of Sym^2 has 8000
    code, out, err = run(capsys, "hodge", op, "--builtin",
                         "curve-g" + "9" * 4000, *extra)
    assert (code, out, err) == \
        (2, "", "error: result holds an integer too long to print\n")


def test_hodge_full_view_budget(capsys):
    """The full view is quadratic in the result's dimension, so it stops at
    1,000; --column and --json are linear and have no such bound."""
    code, out, _ = run(capsys, "hodge", "hilb2", "--builtin", "p500")
    assert code == 0 and out.count("\n") == 2 * 1000 + 1
    for op in ("hilb2", "sym2"):
        code, out, err = run(capsys, "hodge", op, "--builtin", "p501")
        assert (code, out, err) == (2, "", "error: the full view of a diamond "
                                    "of dimension 1002 exceeds 1000; use "
                                    "--column or --json\n")
        for extra in ("--column", "--json"):
            code, out, _ = run(capsys, "hodge", op, "--builtin", "p501", extra)
            assert code == 0 and out


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


def test_gr25_grid_is_where_the_identities_answer():
    """``_grid("gr25")`` lists, k-major, the cells of the Gr(2,5) table
    where ``verify_codim_identity`` answers instead of refusing."""
    cells = []
    for k in range(7):
        for n in range(max(k, 2), 7):
            try:
                fano.verify_codim_identity("gr25", n, k)
            except ValueError:
                continue
            cells.append((n, k))
    assert cli._grid("gr25") == cells


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


def test_fano_splittings_dimension_bound(capsys):
    code, out, _ = run(capsys, "fano", "splittings", "--n", "100000")
    assert code == 0 and out.startswith("n=100000: 2 splitting types\n")
    for n in ("100001", "1000000000"):
        code, out, err = run(capsys, "fano", "splittings", "--n", n)
        assert (code, out, err) == (2, "", "error: need n <= 100000\n")


def test_fano_sodcounts(capsys):
    code, out, _ = run(capsys, "fano", "sodcounts", "--family", "cubic",
                       "--n", "3", "--k", "0")
    assert code == 0
    assert "{D_F1:1, D_PQ:1}" in out
    assert "{D_F0:4, D_F1:1}" in out


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


def test_sod_check_applies_tensor_rules(tmp_path, capsys):
    script = tmp_path / "tensor.sod"
    script.write_text("DX (*) Dpt => {Dpt:5}\n"
                      "{Tensor_DX_Dpt:1, Dpt:1}\n{Dpt:1}\n")
    code, out, _ = run(capsys, "sod", "check", str(script))
    assert code == 0
    assert out == "ambient hh0 = 6\ncandidate hh0 = 1\n6 vs 1 INCONCLUSIVE\n"
    # an atom rule for the same name wins over the tensor rule
    script.write_text("DX (*) Dpt => {Dpt:5}\nTensor_DX_Dpt => {Dpt:2}\n"
                      "{Tensor_DX_Dpt:1, Dpt:1}\n{Dpt:1}\n")
    code, out, _ = run(capsys, "sod", "check", str(script))
    assert code == 0 and out.startswith("ambient hh0 = 3\n")


def test_sod_check_rejects_expressions(tmp_path, capsys):
    script = tmp_path / "bad.sod"
    script.write_text("1 + L\n{Dpt:1}\n{Dpt:2}\n")
    code, _, err = run(capsys, "sod", "check", str(script))
    assert code == 2 and "rules and ledgers" in err


def test_sod_check_requires_two_ledgers(tmp_path, capsys):
    """Too few ledgers name the file; too many, the third."""
    script = tmp_path / "ledgers.sod"
    for text, where, found in [
            ("", "", 0), ("A => {Dpt:1}\n{Dpt:1}\n", "", 1),
            ("{Dpt:1}\n{Dpt:1}\nA => {Dpt:1}\n  {A:1}\n{Dpt:1}\n", ":4:3", 4)]:
        script.write_text(text)
        code, out, err = run(capsys, "sod", "check", str(script))
        assert (code, out) == (2, "")
        assert err == (f"error: {script}{where}: expected exactly two "
                       f"ledgers (ambient then candidate), found {found}\n")


def test_sod_check_unassigned_atom(tmp_path, capsys):
    """The error names the ledger that holds the atom, or whose rules
    reach it."""
    script = tmp_path / "atoms.sod"
    for text, where in [
            ("{DMystery:1}\n{Dpt:2}\n", "1:1"),
            ("# the candidate\n{Dpt:2}\nA => {DMystery:1}\n {Dpt:1, A:1}\n",
             "4:2")]:
        script.write_text(text)
        code, out, err = run(capsys, "sod", "check", str(script))
        assert (code, out) == (2, "")
        assert err == (f"error: {script}:{where}: no invariant assigned to "
                       f"atom 'DMystery'\n")


def test_sod_check_rewrite_loop_names_its_ledger(tmp_path, capsys):
    script = tmp_path / "loop.sod"
    script.write_text("A => {B:1}\nB => {A:1}\n{Dpt:1}\n\n  {Dpt:1, B:2}\n")
    code, out, err = run(capsys, "sod", "check", str(script))
    assert (code, out) == (2, "")
    assert err == f"error: {script}:5:3: rewrite rules loop through 'B'\n"


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


def test_sod_conjecture_consistency_budget(capsys):
    code, out, _ = run(capsys, "sod", "conjecture-consistency",
                       "--n-odd-max", "1001")
    assert code == 0 and out.count("\n") == len(range(3, 1002, 2))
    code, out, err = run(capsys, "sod", "conjecture-consistency",
                         "--n-odd-max", "1003")
    assert (code, out, err) == \
        (2, "", "error: --n-odd-max must be at most 1001, got 1003\n")


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


def test_comment_ends_at_a_lone_cr(tmp_path, capsys):
    """In a file with CR line endings a comment ends at its CR, so the
    statement after it is checked, not swallowed into the comment."""
    script = tmp_path / "cr.mot"
    script.write_bytes(b"# check\r1\r")
    code, out, err = run(capsys, "motive", "check", str(script))
    assert (code, out, err) == (1, "FAIL statement 1: 1\n", "")


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
    script.write_bytes(b"{Dpt:1}\n\xff{Dpt:1}\n")
    code, out, err = run(capsys, command, "check", str(script))
    assert (code, out) == (2, "")
    assert err == f"error: {script}: not UTF-8 at byte 8: invalid start byte\n"


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
    before the first line is printed.  The error names the statement whose
    value is too long: the second, a ledger in the sod script."""
    script = tmp_path / "huge.txt"
    script.write_text(text)
    code, out, err = run(capsys, *argv[:2], str(script), *argv[2:])
    assert code == 2 and out == ""
    assert err == (f"error: {script}:2:1: result holds an integer too long "
                   f"to print\n")


_ONES = "1" * 5000


@pytest.mark.parametrize("text, command, where", [
    (f"1 +\n  {_ONES}*L\n", "motive", "2:3"),
    (f"L^{_ONES}\n", "motive", "1:3"),
    (f"{{Dpt:1}}\n{{Dpt: {_ONES}}}\n", "sod", "2:7"),
], ids=["coefficient", "exponent", "multiplicity"])
def test_integer_literal_too_long_exits_2_at_its_position(
        tmp_path, capsys, text, command, where):
    script = tmp_path / "long.txt"
    script.write_text(text)
    code, out, err = run(capsys, command, "check", str(script))
    assert code == 2 and out == ""
    assert err == \
        f"error: {script}:{where}: integer literal too long (5000 digits)\n"


@pytest.mark.parametrize("command", ["sod", "motive"])
def test_parse_error_names_file_line_and_column(tmp_path, capsys, command):
    script = tmp_path / "bad.txt"
    script.write_text("# first\r\n{Dpt:1}  $\n")
    code, out, err = run(capsys, command, "check", str(script))
    assert (code, out) == (2, "")
    assert err == f"error: {script}:2:10: unexpected character '$'\n"


@pytest.mark.parametrize("text, command, message", [
    ("1 + L\nSym2(A*B)\n", "motive", "2:1: monomial A*B is not a single atom"),
    ("1\n  A (*) B\n", "motive",
     "2:3: tensor factors only make sense on rule left-hand sides"),
    ("L\n\n(Sym2(0 - A))\n", "motive",
     "3:1: negative coefficient -1 at L^0: not an effective class"),
    ("1 - 1\n{Dpt:1}\n", "motive",
     "2:1: motive scripts may only contain expressions"),
    ("{Dpt:1}\nSym2(Dpt) => {Dpt:2}\n  1 + L\n{Dpt:2}\n", "sod",
     "3:3: sod scripts may only contain rules and ledgers"),
    ("1\n 2 * " + "Sym2(" * 12 + "1 + L" + ")" * 12 + "\n", "motive",
     "2:2: Sym2 of this value may hold 8194 terms of 1758 bits, over the "
     "budget of 8388608 bits"),
    ("1\n  " + " * ".join(["(" + "Sym2(" * 10 + "1 + L" + ")" * 10 + ")"] * 8)
     + "\n", "motive",
     "2:3: this product may hold 5121 terms of 2199 bits, over the budget of "
     "8388608 bits"),
], ids=["sym2-of-product", "tensor", "sym2-of-negative", "motive-ledger",
        "sod-expression", "sym2-over-budget", "product-over-budget"])
def test_evaluation_error_names_its_statement(tmp_path, capsys, text, command,
                                              message):
    """A statement that parses but fails to evaluate, or has the wrong kind
    for its script, is reported at the line and column where it starts."""
    script = tmp_path / "bad.txt"
    script.write_text(text)
    for op in ("check", "eval") if command == "motive" else ("check",):
        code, out, err = run(capsys, command, op, str(script))
        assert (code, out, err) == (2, "", f"error: {script}:{message}\n")


@pytest.mark.parametrize("data, line, column", [
    (b"1 +\r)\n", 1, 5),
    (b"L + 1\r\nC +\r\n)\r\n", 3, 1),
], ids=["lone-cr", "crlf"])
def test_parse_error_location_agrees_with_dsl(tmp_path, capsys, data, line,
                                              column):
    """The CLI reads a script as written, so only a line feed starts a line
    there as in ``dsl``: a lone CR does not, and CRLF files keep theirs."""
    script = tmp_path / "bad.mot"
    script.write_bytes(data)
    code, out, err = run(capsys, "motive", "eval", str(script))
    assert (code, out) == (2, "")
    assert err == (f"error: {script}:{line}:{column}: expected integer or 'L' "
                   f"or atom or Sym2(...) or '('; found ')'\n")
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse_script(data.decode())
    assert (info.value.line, info.value.column) == (line, column)


# whole scripts, up to about 2,000 characters: expressions for the motive
# commands, rules and two ledgers for sod check, and at times a stray piece,
# a statement of another kind or a byte that is not UTF-8
_script_leaves = st.sampled_from(
    ["1", "42", "0", "L", "L^2", "L^40", "X", "Dpt", "pt", "Sym2_X", "DC",
     "A (*) B", "x_1", "123456789012345678901234567890"])
_script_ops = st.sampled_from([" + ", " - ", "*", "\n+ ", " -\r\n"])
_script_expressions = st.recursive(
    _script_leaves,
    lambda inner: st.one_of(
        st.tuples(inner, _script_ops, inner).map("".join),
        inner.map("({})".format), inner.map("Sym2({})".format)),
    max_leaves=10)
# mostly Dpt, so that many ledgers reduce to exceptional objects alone
_script_ledgers = st.lists(
    st.tuples(st.sampled_from(["Dpt", "Dpt", "Dpt", "A", "B", "Sym2_A",
                               "Tensor_A_B", "DC"]),
              st.integers(0, 5)), max_size=4).map(
    lambda entries: "{" + ", ".join(f"{n}:{c}" for n, c in entries) + "}")
_script_rules = st.tuples(
    st.sampled_from(["A", "B", "Dpt", "Sym2(A)", "Sym2(DC)", "A (*) B",
                     "B (*) Dpt"]),
    _script_ledgers).map(" => ".join)
_script_strays = st.one_of(
    st.sampled_from(["$", ")", "(", "{", "}", "=>", "Sym2", "L^", "1 +",
                     "{A:}", "\0", "\x85", "# note", "A (*)", "=> {Dpt:1}"]),
    _script_expressions, _script_ledgers, _script_rules)


@st.composite
def _script_runs(draw):
    """A script command, the text of its script, and whether the file starts
    with a byte that is not UTF-8."""
    command = draw(st.sampled_from([("motive", "check"), ("motive", "eval"),
                                    ("sod", "check"),
                                    ("sod", "check", "--json")]))
    if command[0] == "motive":
        statements = draw(st.lists(_script_expressions, max_size=6))
    else:
        statements = (draw(st.lists(_script_rules, max_size=4))
                      + [draw(_script_ledgers), draw(_script_ledgers)])
    if draw(st.integers(0, 3)) == 0:
        statements.insert(draw(st.integers(0, len(statements))),
                          draw(_script_strays))
    text = "\n".join(statements)
    assume(len(text) <= 2000)
    return command, text, draw(st.integers(0, 19)) == 0


@pytest.fixture(scope="module")
def script_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scripts")


@given(_script_runs())
@settings(max_examples=300, deadline=None)
@example((("sod", "check"), "{A:1}\n{Dpt:1}", False))
@example((("sod", "check"), "A => {B:1}\nB => {A:1}\n{A:1}\n{Dpt:1}", False))
@example((("motive", "eval"), "Sym2(" * 12 + "42" + ")" * 12, False))
def test_scripts_answer_or_exit_2_with_one_error_line(script_dir, case):
    """Every script text, run by a script command through ``main`` on a
    file, answers (exit 0, or 1 for a statement that does not vanish) with
    one line per statement, or the ``sod check`` report, and nothing on
    stderr; or it exits 2 with one ``error:`` line and no output, never
    raising.  The error names the file, also when it is in what the
    statements mean together (two ledgers, a rewrite loop, an atom without
    an invariant) or in printing a value too long to print."""
    command, text, bad_byte = case
    path = script_dir / "script.txt"
    data = text.encode("utf-8")
    path.write_bytes(b"\xff" + data if bad_byte else data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command[:2], str(path), *command[2:]])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err.endswith("\n") and err.count("\n") == 1
        assert err.startswith(f"error: {path}:")
        return
    assert err == "" and not bad_byte
    if command[0] == "motive":
        assert code in ((0, 1) if command[1] == "check" else (0,))
        assert out.count("\n") == len(dsl.parse_script(text))
    else:
        assert code == 0 and out.count("\n") == (1 if "--json" in command else 3)


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
    corrupted = (3, {(0, 0): 1, (1, 1): 1, (1, 2): 9, (2, 1): 9, (2, 2): 1,
                     (3, 3): 1})
    monkeypatch.setitem(varieties._TABLES, "quartic-double-solid", corrupted)
    code, out, _ = run(capsys, "verify-all")
    assert code == 1
    assert "FAIL hodge/hilb2-quartic-double-solid-column" in out


# -- JSON output ------------------------------------------------------------------


# the strings commands print: printable ASCII without quotes or backslashes
_PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                    exclude_characters='"\\'))
_JSON_VALUES = st.recursive(
    st.one_of(_PLAIN_TEXT, st.none(), st.booleans(), st.integers(),
              # 4,300 digits print; 4,301 raise int's ValueError
              st.builds(lambda sign, digits: sign * 10 ** (digits - 1),
                        st.sampled_from([1, -1]), st.sampled_from([4300, 4301]))),
    lambda values: st.one_of(
        st.lists(values, max_size=4), st.tuples(values, values),
        st.builds(cli.CheckReport, *[values] * 6),
        st.dictionaries(_PLAIN_TEXT, values, max_size=4)),
    max_leaves=12)


def _dumped(dumps, value, options):
    try:
        return dumps(value, **options)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("options", [{}, {"indent": 2}],
                         ids=["sorted", "sorted-indented"])
@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"b": [1, -2, True, False, None], "a": {}, "c": [], "d": ()})
@example(value=[10 ** 4300])
def test_json_writer_matches_json_dumps(options, value):
    """``_dumps`` prints what ``json.dumps`` prints with sorted keys and the
    option sets the commands pass, byte for byte, or raises the same error,
    for the kinds of value that commands print."""
    assert _dumped(cli._dumps, value, options) == _dumped(
        json.dumps, value, {"sort_keys": True, **options})


@pytest.mark.parametrize("value", [{"x": 1.5}, {1: "one"}, ["caf\xe9"],
                                   ['q"'], ["back\\slash"], ["\n"]])
def test_json_writer_refuses_what_no_command_prints(value):
    """Floats, non-str keys and strings that need escaping are no value a
    command prints, so ``_dumps`` refuses them rather than write them."""
    with pytest.raises(TypeError):
        cli._dumps(value)


# -- usage ------------------------------------------------------------------------


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["hodge", "hilb2"])  # no source given
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nope"])
    assert info.value.code == 2


# one case per subcommand; ``{file}`` is a file holding the text, or a
# missing one when the text is None
_PROCESS_ERRORS = {
    "missing-file": (("motive", "check", "{file}"), None),
    "parse-error": (("motive", "eval", "{file}"), "1 + * L\n"),
    "bad-diamond-json": (("hodge", "hh0", "--diamond", "{file}"), "{not json"),
    "unknown-builtin": (("hodge", "sym2", "--builtin", "nope"), None),
    "empty-builtin": (("hodge", "hh0", "--builtin", ""), None),
    "rewrite-loop": (("sod", "check", "{file}"),
                     "A => {B:1}\nB => {A:1}\n{A:1}\n{Dpt:1}\n"),
    "oversized-n": (("fano", "splittings", "--n", "1000000000"), None),
    "oversized-n-odd-max": (("sod", "conjecture-consistency",
                             "--n-odd-max", "1000000000"), None),
    "oversized-full-view": (("hodge", "hilb2", "--builtin", "p10000"), None),
    # the deepest nesting the parser takes; each Sym2 doubles the result
    "sym2-depth-199": (("motive", "eval", "{file}"),
                       "Sym2(" * 199 + "1 + L" + ")" * 199 + "\n"),
    # results of over 4,300 digits, which Python refuses to print.  The
    # cubic cell has no (k+1)-planes, so its sodcounts ledgers print; the
    # pencil's cell has, and its count of D_F<k+1> runs to 6,001 digits
    **{f"fano-{op}-too-long-to-print": (
        ("fano", op, "--family", family, "--n", "7" * 4001,
         "--k", "3" * 3001), None)
       for op, family in (("dims", "cubic"), ("codim", "cubic"),
                          ("sodcounts", "two-quadrics"))},
}


def _cap_address_space():
    # without its bound, ``--n 1000000000`` builds tuples of gigabytes; under
    # this cap that is a MemoryError, not a host out of memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("case", sorted(_PROCESS_ERRORS))
def test_error_exits_2_with_one_line_as_a_process(tmp_path, case):
    """``python -m flipcheck`` prints nothing on stdout and one ``error:``
    line on stderr, with no traceback, and exits 2."""
    argv, text = _PROCESS_ERRORS[case]
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "flipcheck", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("hodge", "hh0", "--builtin", "p2"),
    ("hodge", "hilb2", "--builtin", "p2000", "--column"),
    ("verify-all",)], ids=" ".join)
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    """A reader that has closed its end of the pipe ends the output: exit
    141, as a shell reports a writer that SIGPIPE ends, and no traceback
    or "Exception ignored" line from the flush at exit."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "flipcheck", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_run_turns_the_collector_off_for_the_command_and_freezes_after(
        monkeypatch):
    """``run`` turns the cyclic collector off while ``main`` runs, so no
    collection walks the tokens and AST a command holds; it freezes the heap
    after it, for the collections at shutdown, and leaves the collector as
    it found it, on or off, also when ``main`` raises; its exit code is
    ``main``'s."""
    calls = []
    monkeypatch.setattr(gc, "freeze",
                        lambda: calls.append(("freeze", gc.isenabled())))
    monkeypatch.setattr(cli, "main",
                        lambda: calls.append(("main", gc.isenabled())) or 3)
    assert gc.isenabled()
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert (calls, exit_.value.code, gc.isenabled()) == (
        [("main", False), ("freeze", False)], 3, True)

    def failing():
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "main", failing)
    with pytest.raises(KeyboardInterrupt):
        cli.run()
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(KeyboardInterrupt):
            cli.run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_profiler_still_reports_after_the_command():
    """The process entry point freezes the heap before it exits instead of
    ending the process at once: a profiler run around it still prints its
    table after the command's output, and the exit code stays 0."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "cProfile", "-m", "flipcheck", "hodge",
         "hh0", "--builtin", "p1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    first, table = proc.stdout.split("\n", 1)
    assert first == "2"
    assert "function calls" in table and "ncalls" in table


def test_atexit_handlers_run_and_the_exit_code_is_kept(tmp_path):
    """A handler registered before the package runs as ``__main__`` still
    runs at exit, after the command's output, and the command's exit code
    (1, a statement that does not vanish) is the process's."""
    script = tmp_path / "nonzero.mot"
    script.write_text("L\n")
    code = ("import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit ran')\n"
            f"sys.argv = ['flipcheck', 'motive', 'check', {str(script)!r}]\n"
            "runpy.run_module('flipcheck', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "FAIL statement 1: L\natexit ran\n", "")


# -- snapshots -----------------------------------------------------------------------

GOLDEN = REPO / "tests" / "golden"


# (snapshot, number, argv): a case is named by its snapshot and the number
# it was first collected under, fixed in its row, so that a case put in
# anywhere renames no other
_OUTPUT_SNAPSHOTS = [
    ("verify-all.txt", 0, ("verify-all",)),
    ("verify-all.json", 1, ("verify-all", "--json")),
    ("motive-check-flip-derivation.txt", 2,
     ("motive", "check", str(CHECKS / "flip-derivation.mot"))),
    ("motive-check-hilbert-square-classes.txt", 3,
     ("motive", "check", str(CHECKS / "hilbert-square-classes.mot"))),
    ("sod-check-degree2-surface.txt", 4,
     ("sod", "check", str(CHECKS / "degree2-surface.sod"))),
    ("fano-dims-gr25-n5.json", 5,
     ("fano", "dims", "--family", "gr25", "--n", "5", "--json")),
    ("fano-codim-cubic-n3-k0.json", 6,
     ("fano", "codim", "--family", "cubic", "--n", "3", "--k", "0", "--json")),
    ("sod-conjecture-consistency-15.json", 7,
     ("sod", "conjecture-consistency", "--n-odd-max", "15", "--json")),
    ("hodge-hilb2-quartic-double-solid.txt", 8,
     ("hodge", "hilb2", "--builtin", "quartic-double-solid")),
    ("hodge-hilb2-p3-column.txt", 9,
     ("hodge", "hilb2", "--builtin", "p3", "--column")),
    ("hodge-sym2-curve-g2.json", 10,
     ("hodge", "sym2", "--builtin", "curve-g2", "--json")),
    ("hodge-hh0-degree2-del-pezzo-surface.json", 11,
     ("hodge", "hh0", "--builtin", "degree2-del-pezzo-surface", "--json")),
    ("sod-obstruction-quartic-double-solid.txt", 12,
     ("sod", "obstruction", "--builtin", "quartic-double-solid")),
    ("sod-obstruction-degree2-del-pezzo-surface.json", 13,
     ("sod", "obstruction", "--builtin", "degree2-del-pezzo-surface", "--json")),
    ("fano-codim-grid.txt", 14, ("fano", "codim", "--grid")),
    ("fano-sodcounts-cubic-n3-k1.txt", 15,
     ("fano", "sodcounts", "--family", "cubic", "--n", "3", "--k", "1")),
    ("fano-sodcounts-cubic-n3-k1.json", 16,
     ("fano", "sodcounts", "--family", "cubic", "--n", "3", "--k", "1",
      "--json")),
    ("fano-splittings-n5.txt", 17, ("fano", "splittings", "--n", "5")),
    ("hodge-sym2-quartic-double-solid.json", 18,
     ("hodge", "sym2", "--builtin", "quartic-double-solid", "--json")),
    ("hodge-hilb2-curve-g3.json", 19,
     ("hodge", "hilb2", "--builtin", "curve-g3", "--json")),
    ("sod-conjecture-consistency-15.txt", 20,
     ("sod", "conjecture-consistency", "--n-odd-max", "15")),
]


def _snapshot_cases(rows):
    """``parametrize``'s arguments for ``rows``: their cases and ids."""
    return {"argvalues": [(snapshot, argv) for snapshot, _, argv in rows],
            "ids": [f"{snapshot}-argv{number}"
                    for snapshot, number, _ in rows]}


@pytest.mark.parametrize("snapshot, argv",
                         **_snapshot_cases(_OUTPUT_SNAPSHOTS))
def test_output_matches_committed_snapshot(capsys, snapshot, argv):
    """Stdout is byte-identical to the output committed under
    tests/golden/, so a change to any layer cannot alter it unnoticed."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / snapshot).read_bytes()


# -- start-up ------------------------------------------------------------------------


# the golden workload's ten command lines, and a script command it leaves out
_COMMAND_LINES = [
    ("verify-all",), ("verify-all", "--json"),
    ("hodge", "hilb2", "--builtin", "quartic-double-solid", "--column"),
    ("hodge", "hh0", "--builtin", "f1-quartic-double-solid"),
    ("sod", "obstruction", "--builtin", "quartic-double-solid"),
    ("sod", "conjecture-consistency", "--n-odd-max", "15"),
    ("fano", "codim", "--grid"),
    ("motive", "check", str(CHECKS / "flip-derivation.mot")),
    ("motive", "check", str(CHECKS / "hilbert-square-classes.mot")),
    ("sod", "check", str(CHECKS / "degree2-surface.sod")),
    ("motive", "eval", str(CHECKS / "hilbert-square-classes.mot")),
]
_SCRIPT_COMMANDS = {("motive", "check"), ("motive", "eval"), ("sod", "check")}


def test_import_leaves_out_typing_and_random():
    """Importing the CLI loads none of ``typing``, ``random``,
    ``dataclasses`` and ``inspect``: annotations name only builtins and
    ``collections.abc``, only the round-trip check draws random values,
    and the AST nodes are plain slotted classes, so a process pays for none
    of them at start-up.  Nor does it load ``argparse`` or any other
    flipcheck module.

    Run as ``python -S -m flipcheck``, as the benchmark runs them, the
    command lines above load no ``argparse``, ``gettext`` or ``locale``,
    because ``_read_argv`` reads them; ``hodge`` commands load no ``re``,
    ``enum`` or module outside hodge and varieties, ``sod obstruction`` and
    ``fano`` commands no ``enum``, ``sod conjecture-consistency`` none of
    ``re``, ``enum``, dsl and motive, as it prints ledgers through sod, and
    script commands none of fano, hodge and varieties."""
    code = ("import sys, flipcheck.cli; print(sorted({'typing', 'random', "
            "'dataclasses', 'inspect', 'argparse', 're', 'enum', "
            "'flipcheck.dsl', 'flipcheck.fano', 'flipcheck.hodge', "
            "'flipcheck.motive', 'flipcheck.sod', 'flipcheck.varieties'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    for argv in _COMMAND_LINES:
        banned = {"argparse", "gettext", "locale"}
        if argv[0] == "hodge":
            banned |= {"re", "enum", "flipcheck.dsl", "flipcheck.fano",
                       "flipcheck.sod", "flipcheck.motive"}
        if argv[:2] == ("sod", "obstruction") or argv[0] == "fano":
            banned.add("enum")
        if argv[:2] == ("sod", "conjecture-consistency"):
            banned |= {"re", "enum", "flipcheck.dsl", "flipcheck.motive"}
        if argv[:2] in _SCRIPT_COMMANDS:
            banned |= {"flipcheck.fano", "flipcheck.hodge",
                       "flipcheck.varieties"}
        err = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "flipcheck", *argv],
            env=env, capture_output=True, text=True, check=True).stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                  if line.startswith("import time:")}
        assert "flipcheck.cli" in loaded and loaded & banned == set(), argv


# a --json command line of each command that prints JSON
_JSON_COMMAND_LINES = [
    ("verify-all", "--json"),
    ("hodge", "hh0", "--builtin", "degree2-del-pezzo-surface", "--json"),
    ("hodge", "sym2", "--builtin", "curve-g2", "--json"),
    ("fano", "dims", "--family", "gr25", "--n", "5", "--json"),
    ("fano", "codim", "--grid", "--json"),
    ("fano", "sodcounts", "--family", "cubic", "--n", "3", "--k", "1",
     "--json"),
    ("fano", "splittings", "--n", "5", "--json"),
    ("sod", "obstruction", "--builtin", "degree2-del-pezzo-surface", "--json"),
    ("sod", "conjecture-consistency", "--n-odd-max", "15", "--json"),
    ("sod", "check", "--json", str(CHECKS / "degree2-surface.sod")),
]


def _run_as_module(argv, modules: set) -> subprocess.CompletedProcess:
    """``python -S -m flipcheck *argv``, which then prints on stderr the
    sorted names of ``modules`` that it loaded."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import runpy, sys\n"
            f"sys.argv = ['flipcheck', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('flipcheck', run_name='__main__')\n"
            "finally:\n"
            f"    print(sorted({modules!r} & set(sys.modules)),"
            " file=sys.stderr)\n")
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ("motive", op, str(path)) for path in sorted(CHECKS.glob("*.mot"))
    for op in ("check", "eval")] + [
    ("sod", "check", str(path)) for path in sorted(CHECKS.glob("*.sod"))],
    ids=lambda argv: " ".join(argv[:2]) + " " + Path(argv[2]).name)
def test_script_commands_load_no_re_and_no_enum(argv):
    """The lexer splits with ``str`` methods, so a script command run as
    ``python -S`` loads neither ``re`` nor the ``enum`` that ``re``
    brings."""
    proc = _run_as_module(argv, {"re", "enum", "flipcheck.dsl"})
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == "['flipcheck.dsl']\n"


@pytest.mark.parametrize("argv", _JSON_COMMAND_LINES,
                         ids=lambda argv: " ".join(argv[:2]))
def test_json_output_loads_no_json_re_or_enum(argv):
    """``_dumps`` writes JSON output itself, so a ``--json`` command run as
    ``python -S`` loads none of ``json``, ``re`` and ``enum``."""
    proc = _run_as_module(argv, {"json", "re", "enum"})
    assert proc.returncode == 0 and proc.stdout[0] in "[{"
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("argv", [("verify-all",), ("verify-all", "--json")],
                         ids=" ".join)
def test_verify_all_loads_no_random(argv):
    """The round-trip check draws from ``random``'s C core, ``_random``, so
    ``verify-all`` run as ``python -S`` never loads ``random``."""
    proc = _run_as_module(argv, {"random", "_random"})
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == "['_random']\n"


@pytest.mark.parametrize("argv, counters", [
    (("verify-all",), ["flipcheck.fano", "flipcheck.sod"]),
    (("motive", "check", str(CHECKS / "flip-derivation.mot")),
     ["flipcheck.sod"]),
    (("sod", "check", str(CHECKS / "degree2-surface.sod")), ["flipcheck.sod"]),
    (("fano", "codim", "--grid"), ["flipcheck.fano"])],
    ids=["verify-all", "motive check", "sod check", "fano codim --grid"])
def test_counting_commands_load_no_math(argv, counters):
    """``sod`` and ``fano`` count with the package's own ``comb``, so a
    command that loads them, run as ``python -S``, loads no ``math``,
    an extension module."""
    proc = _run_as_module(argv, {"math", "flipcheck.fano", "flipcheck.sod"})
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == f"{counters}\n"


# the flipcheck modules each command line loads, as ``python -S`` runs it:
# README's "Start-up" table, each fano op, JSON output and two usage errors.
# A module loads where a line first reads it, so JSON output loads no dsl
# and an error raised before a module is read loads none of it
_MODULE_SETS = {
    "hodge hh0": (("hodge", "hh0", "--builtin", "f1-quartic-double-solid"),
                  "_packed cli hodge varieties"),
    "hodge hilb2 --column": (
        ("hodge", "hilb2", "--builtin", "quartic-double-solid", "--column"),
        "_packed cli hodge varieties"),
    "hodge hh0 --diamond": (("hodge", "hh0", "--diamond", "{diamond}"),
                            "_packed cli hodge varieties"),
    "sod obstruction": (("sod", "obstruction", "--builtin",
                         "quartic-double-solid"),
                        "_packed cli hodge sod varieties"),
    "fano codim --grid": (("fano", "codim", "--grid"), "cli fano"),
    "fano dims": (("fano", "dims", "--family", "cubic", "--n", "3", "--k", "1"),
                  "cli fano"),
    "fano dims no family": (("fano", "dims"), "cli"),
    "fano splittings": (("fano", "splittings", "--n", "5"), "cli fano"),
    "fano sodcounts": (("fano", "sodcounts", "--family", "cubic", "--n", "3",
                        "--k", "1"),
                       "cli fano sod"),
    "fano sodcounts --json": (("fano", "sodcounts", "--family", "cubic",
                               "--n", "3", "--k", "1", "--json"),
                              "cli fano sod"),
    "fano sodcounts no k": (("fano", "sodcounts", "--family", "gr25"),
                            "cli fano"),
    "motive check": (("motive", "check", str(CHECKS / "flip-derivation.mot")),
                     "_packed cli dsl motive sod"),
    "motive eval": (("motive", "eval",
                     str(CHECKS / "hilbert-square-classes.mot")),
                    "_packed cli dsl motive sod"),
    "sod check": (("sod", "check", str(CHECKS / "degree2-surface.sod")),
                  "_packed cli dsl motive sod"),
    "sod conjecture-consistency": (
        ("sod", "conjecture-consistency", "--n-odd-max", "15"), "cli sod"),
    "sod conjecture-consistency --json": (
        ("sod", "conjecture-consistency", "--n-odd-max", "15", "--json"),
        "cli sod"),
    "verify-all": (("verify-all",),
                   "_packed cli dsl fano hodge motive sod varieties"),
    "verify-all --json": (("verify-all", "--json"),
                          "_packed cli dsl fano hodge motive sod varieties"),
}


@pytest.mark.parametrize("argv, modules", _MODULE_SETS.values(),
                         ids=_MODULE_SETS.keys())
def test_each_command_loads_exactly_its_modules(tmp_path, argv, modules):
    """A command line loads exactly the flipcheck modules stated above, no
    more, so that a module a command does not run costs it nothing, and no
    fewer, so that a change in what it loads shows here first."""
    diamond = tmp_path / "d.json"
    diamond.write_text('{"dim": 1, "entries": [[0, 0, 1], [1, 1, 1]]}')
    argv = [arg.replace("{diamond}", str(diamond)) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    err = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "flipcheck", *argv],
        env=env, capture_output=True, text=True, timeout=60).stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
              if line.startswith("import time:")}
    assert {name for name in loaded if name.startswith("flipcheck.")} == {
        f"flipcheck.{name}" for name in modules.split()}


def test_ledger_repr_loads_no_dsl():
    """A ledger prints its canonical text through sod, so its repr loads
    neither dsl nor the ``re`` and motive that dsl brings."""
    code = ("import sys\n"
            "from flipcheck.sod import SodLedger\n"
            "print(repr(SodLedger({'Dpt': 1})), sorted({'flipcheck.dsl', "
            "'flipcheck.motive', 're'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "SodLedger('{Dpt:1}') []\n"


def test_commands_load_json_and_shutil_only_when_they_need_them(tmp_path):
    """A command loads neither ``json`` nor ``shutil`` (nor the compression
    modules ``shutil`` brings), with or without ``--json``: help is laid
    out at a fixed width, ``_dumps`` writes JSON output itself, and only
    diamond JSON input imports ``json``."""
    diamond = tmp_path / "d.json"
    diamond.write_text('{"dim": 0, "entries": [[0, 0, 1]]}')
    code = (
        "import sys\n"
        "from flipcheck import cli\n"
        f"cli.main(['motive', 'check', {str(CHECKS / 'flip-derivation.mot')!r}])\n"
        "cli.main(['verify-all'])\n"
        "cli.main(['verify-all', '--json'])\n"
        "before = sorted({'json', 'shutil', 'zlib', 'bz2', 'lzma'}"
        " & set(sys.modules))\n"
        f"cli.main(['hodge', 'hh0', '--diamond', {str(diamond)!r}])\n"
        "print(before, 'json' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[] True"


# (snapshot, number, argv), named as the cases above
_HELP_SNAPSHOTS = [
    ("help.txt", 0, ("--help",)),
    ("sod-check-help.txt", 1, ("sod", "check", "--help")),
    ("fano-codim-usage-error.txt", 2, ("fano", "codim", "--n", "x")),
    ("hodge-help.txt", 3, ("hodge", "-h")),
    ("fano-help.txt", 4, ("fano", "-h")),
    ("sod-help.txt", 5, ("sod", "-h")),
    ("sod-conjecture-consistency-help.txt", 6,
     ("sod", "conjecture-consistency", "-h")),
    ("sod-obstruction-help.txt", 7, ("sod", "obstruction", "-h")),
    ("motive-help.txt", 8, ("motive", "-h")),
    ("verify-all-help.txt", 9, ("verify-all", "-h")),
    ("hodge-usage-error.txt", 10, ("hodge", "hh0")),
    ("hodge-two-sources-usage-error.txt", 11,
     ("hodge", "hh0", "--builtin", "x", "--diamond", "y")),
    ("fano-dims-usage-error.txt", 12, ("fano", "dims", "--family")),
    ("sod-usage-error.txt", 13, ("sod",)),
    ("sod-obstruction-usage-error.txt", 14, ("sod", "obstruction")),
    ("motive-eval-usage-error.txt", 15, ("motive", "eval")),
    ("verify-all-usage-error.txt", 16, ("verify-all", "--bogus")),
]


@pytest.mark.parametrize("snapshot, argv", **_snapshot_cases(_HELP_SNAPSHOTS))
def test_help_and_usage_errors_ignore_the_terminal_width(snapshot, argv):
    """Help (on stdout, exit 0) and usage errors (on stderr, exit 2) are
    laid out at 78 columns whatever ``COLUMNS`` says, byte for byte the
    text committed under tests/golden/."""
    text = (GOLDEN / snapshot).read_bytes()
    want = (0, text, b"") if argv[-1] in ("-h", "--help") else (2, b"", text)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("COLUMNS", None)
    for columns in (None, "40", "200"):
        if columns is not None:
            env["COLUMNS"] = columns
        proc = subprocess.run([sys.executable, "-m", "flipcheck", *argv],
                              env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == want, columns


# -- the argv reader ---------------------------------------------------------------

# the exact forms of the five commands, as the help describes them:
# command words, each positional's choices, each option's values (none for
# a flag); values argparse's int() takes however they are written
_EXACT_FORMS = [
    (["hodge"], [["hilb2", "sym2", "hh0"]],
     {"--builtin": ["p1", "quartic-double-solid"], "--diamond": ["d.json"],
      "--column": [], "--json": []}),
    (["fano"], [["dims", "codim", "splittings", "sodcounts"]],
     {"--family": ["cubic", "two-quadrics", "gr25"], "--n": ["5", "007", "+3"],
      "--k": ["1", " 2"], "--grid": [], "--json": []}),
    (["sod", "check"], [["f.sod"]], {"--json": []}),
    (["sod", "conjecture-consistency"], [],
     {"--n-odd-max": ["9", "1_5"], "--json": []}),
    (["sod", "obstruction"], [], {"--builtin": ["x"], "--json": []}),
    (["motive"], [["eval", "check"], ["f.mot"]], {}),
    (["verify-all"], [], {"--json": []}),
]
# tokens to put into them: command words, choices, exact, abbreviated and
# ``--x=y`` option spellings, ints that int() refuses, names starting with
# ``-``, and the tokens argparse treats apart
_ARGV_TOKENS = [
    "hodge", "fano", "sod", "motive", "verify-all", "check", "obstruction",
    "hh0", "dims", "--builtin", "--diamond", "--json", "--family", "--n",
    "--k", "--grid", "--n-odd-max", "--bui", "--fam", "--js", "--n-odd",
    "--json=1", "--n=3", "--family=cubic", "gr25", "gr25-section", "p1", "3",
    "-3", "x", "9" * 4301, "", "-f.mot", "-h", "--help", "--", "-",
]


@st.composite
def _argvs(draw):
    """An exact form with its options in any order and any of them left
    out, then up to two tokens replaced or put in from ``_ARGV_TOKENS``."""
    words, positionals, options = draw(st.sampled_from(_EXACT_FORMS))
    items = [[draw(st.sampled_from(choices))] for choices in positionals]
    names = draw(st.permutations(sorted(options)))
    for name in names[:draw(st.integers(0, len(names)))]:
        items.append([name, *([draw(st.sampled_from(options[name]))]
                              if options[name] else [])])
    argv = words + [token for item in draw(st.permutations(items))
                    for token in item]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_ARGV_TOKENS))]
    return argv


def _argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@given(_argvs())
@settings(max_examples=500, deadline=None)
@example(["fano", "dims", "--family", "gr25", "--n", "5"])
def test_argv_reader_agrees_with_argparse(argv):
    """``_read_argv`` returns None or the namespace argparse builds, and
    None wherever argparse exits, for help or for an error."""
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == _argparse_vars(argv)


# the namespace each command's shortest exactly valid form gives, stated
# here apart from cli._FORMS, so that a wrong default, dest or handler in
# that table fails here even though both readers read it
_MINIMAL_FORMS = [
    (("hodge", "hh0", "--builtin", "p1"),
     {"command": "hodge", "func": cli.cmd_hodge, "hodge_op": "hh0",
      "builtin": "p1", "diamond": None, "column": False, "json": False}),
    (("hodge", "sym2", "--diamond", "d.json"),
     {"command": "hodge", "func": cli.cmd_hodge, "hodge_op": "sym2",
      "builtin": None, "diamond": "d.json", "column": False, "json": False}),
    (("fano", "dims"),
     {"command": "fano", "func": cli.cmd_fano, "fano_op": "dims",
      "family": None, "n": 3, "k": None, "grid": False, "json": False}),
    (("sod", "check", "f.sod"),
     {"command": "sod", "sod_op": "check", "func": cli._sod_check,
      "file": "f.sod", "json": False}),
    (("sod", "conjecture-consistency"),
     {"command": "sod", "sod_op": "conjecture-consistency",
      "func": cli._sod_consistency, "n_odd_max": 15, "json": False}),
    (("sod", "obstruction", "--builtin", "x"),
     {"command": "sod", "sod_op": "obstruction", "func": cli._sod_obstruction,
      "builtin": "x", "json": False}),
    (("motive", "eval", "f.mot"),
     {"command": "motive", "func": cli.cmd_motive, "motive_op": "eval",
      "file": "f.mot"}),
    (("verify-all",),
     {"command": "verify-all", "func": cli.cmd_verify_all, "json": False}),
]


@pytest.mark.parametrize("argv, namespace", _MINIMAL_FORMS,
                         ids=[" ".join(argv[:2]) for argv, _ in _MINIMAL_FORMS])
def test_minimal_forms_give_the_stated_namespace(argv, namespace):
    """Both readers give each shortest form exactly the namespace stated
    above: every default, and no attribute more or less."""
    assert vars(cli._read_argv(list(argv))) == namespace
    assert _argparse_vars(list(argv)) == namespace


def test_argv_reader_reads_the_exact_forms():
    """The golden command lines and exact forms with their options in any
    order are read without argparse, as argparse reads them."""
    for argv in _COMMAND_LINES + [
            ("fano", "dims", "--family", "cubic", "--n", "3", "--k", "1"),
            ("hodge", "sym2", "--json", "--diamond", "d.json", "--column"),
            ("sod", "check", "--json", "x.sod"),
            ("sod", "obstruction", "--json", "--builtin", "x"),
            ("fano", "--n", "5", "--k", "2", "--family", "gr25", "sodcounts")]:
        read = cli._read_argv(list(argv))
        assert read is not None and vars(read) == _argparse_vars(list(argv))


# -- cyclic garbage ------------------------------------------------------------------


def _script_command_lines(tmp_path):
    """Script commands on the paths that end a command, each with its exit
    code: a failing statement, every kind of exit-2 error a script can give,
    and two scripts of some size, a 2,000-term sum and nested ``Sym2``."""
    files = {
        "fail.mot": "1 + L\nL - L\n",
        "syntax.mot": "1 + L\n1 + )\n",
        "ledger.mot": "1 + L\n{Dpt:1}\n",
        "expr.sod": "{Dpt:1}\n1 + L\n",
        "deep.mot": "Sym2(" * 199 + "1 + L" + ")" * 199 + "\n",
        "sum.mot": " + ".join(f"{i % 9 + 1}*L^{i % 6}*a{i % 701}*b{i % 13}"
                               for i in range(2000)) + "\n",
        "nested.mot": "Sym2(Sym2(Sym2(1 + 2*L + L^2 + 3*L^3)))\n"
                      "Sym2(Sym2(2 + L*u1 + 3*L^2)) - Sym2(L + w)*w\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "latin1.mot").write_bytes(b"\xff{Dpt:1}\n")
    return [
        (("motive", "check", "fail.mot"), 1),
        (("motive", "eval", "syntax.mot"), 2),
        (("motive", "eval", "ledger.mot"), 2),
        (("sod", "check", "expr.sod"), 2),
        (("motive", "eval", "deep.mot"), 2),
        (("motive", "check", "latin1.mot"), 2),
        (("sod", "check", "missing.sod"), 2),
        (("motive", "eval", "sum.mot"), 0),
        (("motive", "check", "nested.mot"), 1),
    ]


def test_checks_and_scripts_leave_no_cyclic_garbage(tmp_path):
    """The golden checks, the scripts under checks/, a rule script of a few
    hundred rules, ``main`` on the golden and ``--json`` command lines, and
    ``main`` on script commands that fail, exit 2 at each kind of script
    error or run a large sum and nested ``Sym2``, free everything they drop
    by reference counting.  A process runs its command with the cyclic
    collector off (``cli.run``), so a change that makes a reference cycle
    fails here instead of growing memory.  Left out is argparse, which makes
    cycles of its own and runs only for help and usage errors."""
    rules = "".join(f"D{i} => {{Dpt:{i % 3 + 1}, D{i // 2}:1}}\n"
                    for i in range(1, 300))
    script = rules + "{D299:2, D150:1}\n{Dpt:1, D7:3}\n"
    commands = _script_command_lines(tmp_path)
    codes = []

    def run():
        cli.run_all_checks()
        for argv in _COMMAND_LINES + _JSON_COMMAND_LINES:
            main(list(argv))
        for (*words, name), _ in commands:
            codes.append(main([*words, str(tmp_path / name)]))
        for text in [p.read_text(encoding="utf-8")
                     for p in sorted(CHECKS.iterdir())] + [script]:
            table = sod.default_rules()
            for node in dsl.parse_script(text):
                value = dsl.evaluate(node)
                if isinstance(value, sod.RewriteRule):
                    table.add(value)
                elif isinstance(value, sod.SodLedger):
                    table.normalize(value)
    assert _cyclic_garbage(run) == []
    assert codes == [code for _, code in commands]


def _cyclic_garbage(run) -> list[str]:
    """The type names of the objects that ``run()`` leaves in reference
    cycles, kept by ``gc.DEBUG_SAVEALL`` and then dropped."""
    gc.collect()
    saved, flags = len(gc.garbage), gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage[saved:]]
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]


def _dense_diamond(rng, dim):
    """Every entry positive, Hodge-symmetric and Serre-dual."""
    entries = {}
    for p in range(dim + 1):
        for q in range(dim + 1):
            if (p, q) not in entries:
                h = rng.randint(1, 9)
                for key in ((p, q), (q, p), (dim - p, dim - q), (dim - q, dim - p)):
                    entries[key] = h
    return entries


def test_kernel_calls_leave_no_cyclic_garbage():
    """The value-type kernels called directly, as a benchmark cycle calls
    them: the diamond products and squares on dense diamonds of dimension
    10 and 20 and on one with odd diagonals, a diamond refused as not
    Hodge-symmetric, the class squares and product on 64-term one-atom
    classes, and the ledger operations."""
    from flipcheck import hodge, motive
    rng = random.Random(35)
    tables = [hodge.HodgeDiamond(d, _dense_diamond(rng, d)) for d in (10, 20)]
    tables.append(varieties.builtin("quartic-double-solid"))
    assert all(1 in d._diagonals for d in tables)  # odd diagonals in each

    def one_atom_class(prefix):
        return {(rng.randint(0, 4), (f"{prefix}{i}",)): rng.randint(1, 3)
                for i in range(64)}
    x = motive.MotiveExpr({**one_atom_class("x"), (0, ()): 1})
    a = motive.MotiveExpr(one_atom_class("p"))
    b = motive.MotiveExpr({key: -c if i % 3 else c  # signed, as a difference
                           for i, (key, c) in enumerate(one_atom_class("q").items())})
    components = ["Dpt"] * 99 + ["DC"]

    def run():
        for d in tables:
            hodge.kunneth(d, tables[0])
            hodge.sym2(d)
            hodge.hilbert_square(d)
        try:
            hodge.HodgeDiamond(3, {(0, 0): 1, (1, 0): 4, (0, 1): 2, (3, 3): 1})
        except ValueError:
            pass
        else:
            raise AssertionError("a table that is not Hodge-symmetric was built")
        motive.sym2_class(x)
        motive.hilbert_square_class(x, 3)
        a * b
        sod.sym2_ledger(components)
        sod.hilb2_ledger(components, 4)
        sod.conjecture_consistency(51)
    assert _cyclic_garbage(run) == []
