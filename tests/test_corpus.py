"""The committed output corpus (tests/corpus.py, tests/corpus.txt) against
this tree: every line in-process, and a sample as processes."""

import shlex

import pytest

import corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus.write_inputs(root)
    return root


def test_output_matches_the_committed_corpus(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    committed = corpus.CORPUS.read_text(encoding="utf-8")
    assert corpus.differences(corpus.record(), committed) == []


# one line per kind of output: text, JSON, a large column, an error line
# (exit 2), a failing check (exit 1), and ledgers printed without dsl
_SAMPLE = ["verify-all", "hodge sym2 --diamond inputs/wide-entries.json --json",
           "hodge hilb2 --builtin p10000 --column",
           "motive eval inputs/eval-line2.mot",
           "motive check inputs/sym2-depth-10.mot",
           "sod conjecture-consistency --n-odd-max 15"]


@pytest.mark.parametrize("command", _SAMPLE)
def test_processes_match_the_corpus(workdir, monkeypatch, command):
    """``python -S -m flipcheck`` writes the bytes that ``cli.main`` writes
    in-process, so the in-process corpus stands for the processes."""
    monkeypatch.chdir(workdir)
    rows = {row.split("\t")[4]: row.split("\t")
            for row in corpus.CORPUS.read_text(encoding="utf-8").splitlines()
            if not row.startswith("#")}
    mark, code, out, err, _ = rows[command]
    assert mark == "-"
    got_code, got_out, got_err = corpus.run_process(shlex.split(command))
    assert [str(got_code), corpus._digest(got_out), corpus._digest(got_err)] \
        == [code, out, err]
