"""The output corpus: flipcheck's command lines, each with the exit code and
the SHA-256 of the stdout and stderr it gives, one line per command in
``tests/corpus.txt``.  The north star makes byte-identical output a
guarantee; this file states it for every line below at once.

    python tests/corpus.py           # compare with tests/corpus.txt
    python tests/corpus.py --write   # record tests/corpus.txt anew

Every command runs in-process through ``flipcheck.cli.main`` with its
streams captured, inside a fresh directory that holds its inputs at fixed
relative paths (``checks/``, ``inputs/``), so no message names a
temporary directory.  ``tests/test_corpus.py`` runs this comparison, and
a sample of the lines as ``python -S -m flipcheck`` processes.

A line whose text comes from argparse (help and usage errors, which end
in ``SystemExit``) is marked ``argparse``: its bytes differ by Python
version, so on a version other than the one that recorded the file only
its exit code is compared.  A change of output on purpose records the
file anew, and its diff names the lines that changed.

Standard library only.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "corpus.txt"

HEADER = ("# flipcheck output corpus: mark, exit code, SHA-256 of stdout, "
          "SHA-256 of stderr, command line.\n"
          "# Regenerate with: python tests/corpus.py --write\n")

BUILTINS = ["point", "p1", "p2", "p3", "curve-g0", "curve-g1", "curve-g2",
            "curve-g3", "degree2-del-pezzo-surface", "f1-quartic-double-solid",
            "quartic-double-solid"]
HODGE_OPS = ["hh0", "sym2", "hilb2"]
VIEWS = [[], ["--column"], ["--json"]]
FAMILIES = ["cubic", "two-quadrics", "gr25"]
LONG = ["--family", "cubic", "--n", "7" * 4001, "--k", "3" * 3001]


def _nested_sym2(depth: int) -> str:
    return "Sym2(" * depth + "1 + L" + ")" * depth + "\n"


def _diamond(dim: int, entries: dict) -> str:
    rows = [[p, q, v] for (p, q), v in sorted(entries.items())]
    return json.dumps({"dim": dim, "entries": rows}) + "\n"


# input files, by relative path: text, or bytes where the bytes matter
INPUTS = {
    # Hodge-symmetric and Serre-dual: four corners of dimension 1,000
    "inputs/corners-1000.json": _diamond(1000, {
        (0, 0): 1, (0, 1000): 2, (1000, 0): 2, (1000, 1000): 1}),
    # entries over 8 bytes, so the packed slots take the per-slot loop
    "inputs/wide-entries.json": _diamond(2, {
        (0, 0): 1, (1, 0): 10**30, (0, 1): 10**30, (1, 1): 7 * 10**25,
        (2, 1): 10**30, (1, 2): 10**30, (2, 2): 1}),
    # h^{1,0} != h^{0,1}: the diamond constructor refuses it
    "inputs/nonsymmetric.json": _diamond(1, {
        (0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 1}),
    "inputs/bad.json": "{not json\n",
    "inputs/long.json": ('{"dim": 0, "entries": [[0, 0, 1' + "0" * 5000
                         + "]]}\n"),
    # a nested row: the message must not grow with it.  100 levels stay far
    # below the recursion limits of json's scanner on every Python version
    "inputs/deep.json": '{"dim": 1, "entries": ' + "[" * 100 + "]" * 100
                        + "}\n",
    "inputs/loop.sod": "A => {B:1}\nB => {A:1}\n{A:1}\n{Dpt:1}\n",
    "inputs/line2.sod": "{Dpt:1}\n{Dpt:$}\n",
    "inputs/latin1.mot": b"\xff{Dpt:1}\n",
    "inputs/lone-cr.mot": "1 +\r)\n",
    "inputs/eval-line2.mot": "1 + L\nSym2(A*B)\n",
    "inputs/parse-error.mot": "1 + * L\n",
    "inputs/ring.sod": "".join(f"A{i} => {{A{(i + 1) % 10001}:1}}\n"
                               for i in range(10001)) + "{A0:1}\n{Dpt:1}\n",
    "inputs/chain.sod": "".join(f"A{i} => {{A{i + 1}:1}}\n"
                                for i in range(10000))
                        + "A10000 => {Dpt:1}\n{A0:1}\n{Dpt:1}\n",
    "inputs/sym2-depth-10.mot": _nested_sym2(10),
    # past the Sym2 size budget: 12 levels, and the deepest the parser takes
    "inputs/sym2-depth-12.mot": _nested_sym2(12),
    "inputs/sym2-depth-199.mot": _nested_sym2(199),
    # refusals of sod check: too few and too many ledgers, and an atom that
    # no rule takes to Dpt
    "inputs/one-ledger.sod": "{Dpt:1}\n",
    "inputs/three-ledgers.sod": "{Dpt:1}\n{Dpt:1}\n{Dpt:1}\n",
    "inputs/unassigned.sod": "{X:1}\n{Dpt:1}\n",
    # refusals of motive eval: the evaluator's, the size budget's (at the
    # fifth power of the product) and the parser's
    "inputs/tensor.mot": "A (*) B\n",
    "inputs/negative-sym2.mot": "Sym2(0 - X)\n",
    "inputs/product.mot": " * ".join(["(" + _nested_sym2(10)[:-1] + ")"] * 8)
                          + "\n",
    "inputs/nested-200.mot": "(" * 200 + "1" + ")" * 200 + "\n",
    "inputs/long-literal.mot": "1" * 4301 + "\n",
    "inputs/unclosed.mot": "(1 + L\n",
    # diamond JSON of the wrong shape, each refused with its own message
    "inputs/not-object.json": "[]\n",
    "inputs/text-dim.json": '{"dim": "1", "entries": []}\n',
    "inputs/large-dim.json": '{"dim": 100001, "entries": []}\n',
    "inputs/negative-dim.json": '{"dim": -1, "entries": []}\n',
    "inputs/object-entries.json": '{"dim": 1, "entries": {}}\n',
    "inputs/short-row.json": '{"dim": 1, "entries": [[0, 0]]}\n',
    "inputs/negative-entry.json": _diamond(1, {(0, 0): -1}),
    "inputs/outside-entry.json": _diamond(1, {(0, 2): 1}),
    # an atom rule beats a Sym2 rule that rewrites the same atom, in either
    # order
    "inputs/atom-rule-first.sod": ("Sym2_DX => {Dpt:5}\nSym2(DX) => {Dpt:1}\n"
                                   "{Dpt:3}\n{Sym2_DX:1}\n"),
    "inputs/sym2-rule-first.sod": ("Sym2(DX) => {Dpt:1}\nSym2_DX => {Dpt:5}\n"
                                   "{Dpt:3}\n{Sym2_DX:1}\n"),
    # a word the lexer cuts into an INT and an IDENT
    "inputs/int-ident.sod": "{Dpt:2x}\n",
    # the square of a 12-term pure-L group with signed coefficients
    "inputs/signed-square.mot": " * ".join(["(1" + "".join(
        f" {'-' if i % 3 == 1 else '+'} {i % 5 + 1}*L^{i}"
        for i in range(1, 12)) + ")"] * 2) + "\n",
}


def commands() -> list[list[str]]:
    """Every command line of the corpus, in a fixed order."""
    lines = [
        # the benchmark's golden workload
        ["verify-all"], ["verify-all", "--json"],
        ["hodge", "hilb2", "--builtin", "quartic-double-solid", "--column"],
        ["hodge", "hh0", "--builtin", "f1-quartic-double-solid"],
        ["sod", "obstruction", "--builtin", "quartic-double-solid"],
        ["sod", "conjecture-consistency", "--n-odd-max", "15"],
        ["fano", "codim", "--grid"],
        ["motive", "check", "checks/flip-derivation.mot"],
        ["motive", "check", "checks/hilbert-square-classes.mot"],
        ["sod", "check", "checks/degree2-surface.sod"],
    ]
    # every builtin, and the largest, in each view
    for name in BUILTINS + ["p1000"]:
        for op in HODGE_OPS:
            lines += [["hodge", op, "--builtin", name, *v] for v in VIEWS]
    lines += [["hodge", op, "--builtin", "p10000", "--column"]
              for op in HODGE_OPS]
    for path in ("inputs/corners-1000.json", "inputs/wide-entries.json",
                 "inputs/nonsymmetric.json"):
        for op in HODGE_OPS:
            lines += [["hodge", op, "--diamond", path, *v] for v in VIEWS]
    lines += [["hodge", "hh0", "--diamond", f"inputs/{name}.json"]
              for name in ("bad", "long", "deep", "missing", "not-object",
                           "text-dim", "large-dim", "negative-dim",
                           "object-entries", "short-row", "negative-entry",
                           "outside-entry")]
    lines += [["hodge", "hh0", "--builtin", name]
              for name in ("", "nope", "p100001", "curve-g", "p0", "p007")]
    # fano: every op by family, n and k, in range and at each bound
    for family in FAMILIES:
        for n in range(0, 8):
            for k in range(-1, 4):
                cell = ["--family", family, "--n", str(n), "--k", str(k)]
                lines += [["fano", "dims", *cell], ["fano", "codim", *cell],
                          ["fano", "sodcounts", *cell]]
        lines += [["fano", "dims", "--family", family, "--n", "3", "--k", "1",
                   "--json"],
                  ["fano", "codim", "--family", family, "--n", "4", "--k", "0",
                   "--json"],
                  ["fano", "sodcounts", "--family", family, "--n", "3", "--k",
                   "1", "--json"],
                  ["fano", "dims", "--family", family, "--n", "3"],
                  ["fano", "sodcounts", "--family", family, "--n", "7"],
                  ["fano", "codim", "--grid", "--family", family],
                  ["fano", "codim", "--grid", "--family", family, "--json"]]
    lines += [["fano", "codim", "--grid", "--json"], ["fano", "dims"],
              ["fano", "codim", "--family", "cubic", "--n", "3"],
              ["fano", "dims", "--family", "nope", "--n", "3", "--k", "0"]]
    lines += [["fano", "splittings", "--n", str(n)]
              for n in (1, 2, 3, 5, 8, 100001, 1000000000)]
    lines += [["fano", "splittings", "--n", "6", "--json"]]
    lines += [["fano", op, *LONG] for op in ("dims", "codim", "sodcounts")]
    # sod and motive on the check scripts and on the exit-2 inputs
    for script in ("checks/flip-derivation.mot",
                   "checks/hilbert-square-classes.mot"):
        lines += [["motive", "eval", script], ["motive", "check", script],
                  ["sod", "check", script]]
    lines += [["sod", "check", "checks/degree2-surface.sod", "--json"],
              ["motive", "eval", "checks/degree2-surface.sod"]]
    for name in ("loop.sod", "line2.sod", "ring.sod", "chain.sod",
                 "one-ledger.sod", "three-ledgers.sod", "unassigned.sod",
                 "atom-rule-first.sod", "sym2-rule-first.sod",
                 "int-ident.sod"):
        lines += [["sod", "check", f"inputs/{name}"]]
    for name in ("latin1.mot", "lone-cr.mot", "eval-line2.mot",
                 "parse-error.mot", "missing.mot", "sym2-depth-10.mot",
                 "sym2-depth-12.mot", "sym2-depth-199.mot"):
        lines += [["motive", "eval", f"inputs/{name}"],
                  ["motive", "check", f"inputs/{name}"]]
    lines += [["motive", "eval", f"inputs/{name}"]
              for name in ("tensor.mot", "negative-sym2.mot", "product.mot",
                           "nested-200.mot", "long-literal.mot",
                           "unclosed.mot", "signed-square.mot")]
    for n in ("2", "3", "15", "1001", "1002", "1000000000"):
        lines += [["sod", "conjecture-consistency", "--n-odd-max", n]]
    lines += [["sod", "conjecture-consistency", "--json"],
              ["sod", "conjecture-consistency"]]
    for name in ("quartic-double-solid", "degree2-del-pezzo-surface", "p2"):
        lines += [["sod", "obstruction", "--builtin", name],
                  ["sod", "obstruction", "--builtin", name, "--json"]]
    # help, and usage errors: argparse's text
    for words in ([], ["hodge"], ["fano"], ["sod"], ["sod", "check"],
                  ["sod", "conjecture-consistency"], ["sod", "obstruction"],
                  ["motive"], ["verify-all"]):
        lines += [[*words, "-h"]]
    lines += [[], ["nope"], ["hodge"], ["hodge", "hilb2"],
              ["hodge", "hh0", "--builtin", "p2", "--diamond", "x.json"],
              ["fano"], ["fano", "codim", "--n", "x"], ["sod"],
              ["motive", "eval"], ["verify-all", "--bogus"],
              ["fano", "dims", "--fam", "cubic", "--n=3", "--k", "1"],
              ["hodge", "hh0", "--built", "p2"]]
    # the golden workload's lines recur above: keep each first one
    return list({shlex.join(argv): argv for argv in lines}.values())


def write_inputs(root: Path) -> None:
    """Lay the inputs out under ``root`` at their relative paths."""
    shutil.copytree(REPO / "checks", root / "checks")
    for rel, data in INPUTS.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data, encoding="utf-8", newline="")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_in_process(argv: list[str]) -> tuple[str, int, bytes, bytes]:
    """``(mark, exit code, stdout, stderr)`` of ``cli.main(argv)`` in the
    current directory; the mark is ``argparse`` when argparse ended it."""
    from flipcheck import cli

    out, err, mark = io.StringIO(), io.StringIO(), "-"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, mark = exc.code, "argparse"
    return mark, code, out.getvalue().encode(), err.getvalue().encode()


def run_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """``(exit code, stdout, stderr)`` of ``python -S -m flipcheck`` in the
    current directory."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-S", "-m", "flipcheck", *argv],
                          env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def line(mark: str, code: int, out: bytes, err: bytes, argv: list[str]) -> str:
    return "\t".join([mark, str(code), _digest(out), _digest(err),
                      shlex.join(argv)])


def record() -> str:
    """The corpus file's text, from commands run in the current directory."""
    version = "%d.%d" % sys.version_info[:2]
    rows = [line(*run_in_process(argv), argv) for argv in commands()]
    return (HEADER + f"# argparse lines recorded on Python {version}\n"
            + "".join(row + "\n" for row in rows))


def differences(recorded: str, committed: str) -> list[str]:
    """Lines of ``committed`` that ``recorded`` does not repeat; an
    ``argparse`` line recorded on another Python version compares by its
    exit code and command line alone."""
    def rows(text):
        return [r.split("\t") for r in text.splitlines() if not r.startswith("#")]

    version_line = next((r for r in committed.splitlines()
                         if r.startswith("# argparse lines recorded on")), "")
    same_version = version_line.endswith(" %d.%d" % sys.version_info[:2])
    new, old = rows(recorded), rows(committed)
    if len(new) != len(old):
        return [f"{len(old)} lines committed, {len(new)} recorded"]
    out = []
    for a, b in zip(new, old):
        if a[0] == b[0] == "argparse" and not same_version:
            a, b = [a[1], a[4]], [b[1], b[4]]
        if a != b:
            out.append("\t".join(b))
    return out


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            text = record()
        finally:
            os.chdir(cwd)
    if argv == ["--write"]:
        CORPUS.write_text(text, encoding="utf-8")
        return 0
    diff = differences(text, CORPUS.read_text(encoding="utf-8"))
    for row in diff:
        print(f"differs: {row}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main(sys.argv[1:]))
