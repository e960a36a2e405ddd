import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from flipcheck import cli, dsl, sod, varieties
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
    corrupted = (3, {(0, 0): 1, (1, 1): 1, (1, 2): 9, (2, 1): 9, (2, 2): 1,
                     (3, 3): 1})
    monkeypatch.setitem(varieties._TABLES, "quartic-double-solid", corrupted)
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


# one case per subcommand; ``{file}`` is a file holding the text, or a
# missing one when the text is None
_PROCESS_ERRORS = {
    "missing-file": (("motive", "check", "{file}"), None),
    "parse-error": (("motive", "eval", "{file}"), "1 + * L\n"),
    "bad-diamond-json": (("hodge", "hh0", "--diamond", "{file}"), "{not json"),
    "unknown-builtin": (("hodge", "sym2", "--builtin", "nope"), None),
    "rewrite-loop": (("sod", "check", "{file}"),
                     "A => {B:1}\nB => {A:1}\n{A:1}\n{Dpt:1}\n"),
    "oversized-n": (("fano", "splittings", "--n", "1000000000"), None),
    "oversized-n-odd-max": (("sod", "conjecture-consistency",
                             "--n-odd-max", "1000000000"), None),
    "oversized-full-view": (("hodge", "hilb2", "--builtin", "p10000"), None),
    # results of over 4,300 digits, which Python refuses to print
    **{f"fano-{op}-too-long-to-print": (
        ("fano", op, "--family", "cubic", "--n", "7" * 4001,
         "--k", "3" * 3001), None) for op in ("dims", "codim", "sodcounts")},
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


# -- cyclic garbage ------------------------------------------------------------------


def test_checks_and_scripts_leave_no_cyclic_garbage():
    """The golden checks, the scripts under checks/ and a rule script of a
    few hundred rules free everything they drop by reference counting, so
    a change that makes a reference cycle fails here instead of growing
    memory and collector time.  ``main`` is left out: argparse makes
    cycles of its own."""
    rules = "".join(f"D{i} => {{Dpt:{i % 3 + 1}, D{i // 2}:1}}\n"
                    for i in range(1, 300))
    script = rules + "{D299:2, D150:1}\n{Dpt:1, D7:3}\n"
    gc.collect()
    saved, flags = len(gc.garbage), gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.run_all_checks()
        for text in [p.read_text(encoding="utf-8")
                     for p in sorted(CHECKS.iterdir())] + [script]:
            table = sod.default_rules()
            for node in dsl.parse_script(text):
                value = dsl.evaluate(node)
                if isinstance(value, sod.RewriteRule):
                    table.add(value)
                elif isinstance(value, sod.SodLedger):
                    table.normalize(value)
        gc.collect()
        garbage = gc.garbage[saved:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
    assert [type(obj).__name__ for obj in garbage] == []
