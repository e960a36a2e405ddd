"""Which statements of ``src/flipcheck`` no input reaches.

Runs, in-process under ``sys.settrace``, every command line of the output
corpus (``tests/corpus.py``), every op of the benchmark's ``golden`` and
``scripts`` workloads and every ``kernels`` op, each for seeds 1 and 31.
Then it prints, per source file, each statement that none of them ran,
with its first line; a statement inside one that never ran is left out,
and so are docstrings, which run nothing.

    python tests/reach.py

A statement counts as run when any line it spans was traced.  A listed
statement is either a refusal or branch that only a test reaches, or code
that nothing reaches: a candidate for a test or for removal.  Standard
library only; ``perfbench/workloads.py`` and ``perfbench/kernels.py`` are
imported, not changed.  It takes about 12 s on a 2-core Xeon, and no CI
step runs it.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "flipcheck"
SEEDS = (1, 31)

_lines: set[tuple[str, int]] = set()


def _trace_line(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    """Trace the lines of src frames only, so other code runs at speed."""
    return _trace_line if frame.f_code.co_filename.startswith(str(SRC)) else None


def _cli(argv) -> None:
    from flipcheck import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(list(argv))
        except SystemExit:  # argparse's help and usage errors
            pass


def run_inputs(root: Path) -> None:
    """Every input, run from ``root``, which holds the corpus's files."""
    import corpus
    import flipcheck
    import kernels
    import workloads

    corpus.write_inputs(root)
    for argv in corpus.commands():
        _cli(argv)
    for seed in SEEDS:
        scripts = root / f"scripts-{seed}"
        scripts.mkdir()
        for workload in ("golden", "scripts"):
            for op in workloads.cli_ops(workload, seed, str(scripts)):
                _cli(op.args)
        for op in kernels.kernel_ops(flipcheck, seed):
            op.call()


def unreached(path: Path, lines: set[int]) -> list[ast.stmt]:
    """The statements of ``path`` that span no line of ``lines`` and sit in
    a statement that does, or at the top level; docstrings excluded."""
    out = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child)
            elif not lines.intersection(range(child.lineno,
                                              child.end_lineno + 1)):
                if not (isinstance(child, ast.Expr)
                        and isinstance(child.value, ast.Constant)
                        and isinstance(child.value.value, str)):
                    out.append(child)
            else:
                visit(child)
    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return out


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"),
                    str(REPO / "perfbench")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(_trace_call)  # before flipcheck is imported
        try:
            run_inputs(Path(tmp))
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = {n for f, n in _lines if f == str(path)}
        for stmt in unreached(path, lines):
            print(f"{path.name}:{stmt.lineno}: {text[stmt.lineno - 1].strip()}")
            total += 1
    print(f"{total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
