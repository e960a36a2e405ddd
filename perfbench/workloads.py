"""The command-line workloads: each op is one ``flipcheck`` invocation.

``golden`` cycles through the commands a reader of the paper runs;
``scripts`` runs seeded ``.mot`` and ``.sod`` files at three sizes.  The
same ops run as child processes in the timed run and through
``flipcheck.cli.main`` in the trace run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import gen
import oracle


@dataclass(frozen=True)
class CliOp:
    label: str
    args: tuple[str, ...]
    check: Callable[[int, str], str | None]


def golden_ops(seed: int) -> list[CliOp]:
    ops = [
        CliOp("verify-all", ("verify-all",), oracle.check_verify_all),
        CliOp("verify-all-json", ("verify-all", "--json"),
              oracle.check_verify_all_json),
        CliOp("hilb2-column", ("hodge", "hilb2", "--builtin",
                               "quartic-double-solid", "--column"),
              oracle.check_hilb2_column),
        CliOp("f1-hh0", ("hodge", "hh0", "--builtin", "f1-quartic-double-solid"),
              oracle.check_f1_hh0),
        CliOp("obstruction", ("sod", "obstruction", "--builtin",
                              "quartic-double-solid"), oracle.check_obstruction),
        CliOp("consistency", ("sod", "conjecture-consistency",
                              "--n-odd-max", "15"), oracle.check_consistency),
        CliOp("codim-grid", ("fano", "codim", "--grid"), oracle.check_codim_grid),
        CliOp("flip-derivation", ("motive", "check", "checks/flip-derivation.mot"),
              partial(oracle.check_motive_check, expected=[{}] * 4)),
        CliOp("hilbert-square-classes",
              ("motive", "check", "checks/hilbert-square-classes.mot"),
              partial(oracle.check_motive_check, expected=[{}] * 3)),
        CliOp("degree2-surface", ("sod", "check", "checks/degree2-surface.sod"),
              partial(oracle.check_sod_check, ambient=oracle.DEGREE2_HILB2_COUNT,
                      candidate=oracle.DEGREE2_LINES)),
    ]
    random.Random(seed).shuffle(ops)
    return ops


def scripts_ops(seed: int, input_dir: str) -> list[CliOp]:
    """Write the seeded scripts into ``input_dir`` and return their ops."""
    ops = []
    for script in gen.scripts(seed):
        path = os.path.join(input_dir, script.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script.text)
        if script.command[0] == "sod":
            ambient, candidate = script.expected
            check = partial(oracle.check_sod_check, ambient=ambient,
                            candidate=candidate)
        elif script.command[1] == "check":
            check = partial(oracle.check_motive_check, expected=script.expected)
        else:
            check = partial(oracle.check_motive_eval, expected=script.expected)
        ops.append(CliOp(script.name, (*script.command, path), check))
    return ops


def cli_ops(workload: str, seed: int, input_dir: str) -> list[CliOp]:
    if workload == "golden":
        return golden_ops(seed)
    return scripts_ops(seed, input_dir)


def input_bytes(op: CliOp) -> int:
    """Size of the script an op reads, 0 for ops without one."""
    path = op.args[-1]
    return os.path.getsize(path) if os.path.isfile(path) else 0


def tampered(stdout: str) -> str:
    """The same output with its last line missing."""
    return "".join(stdout.splitlines(keepends=True)[:-1])
