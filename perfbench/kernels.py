"""The ``kernels`` workload: direct calls into flipcheck's value types.

Run as a script, this is the worker process that measures the workload:
it builds the seeded inputs and runs one untimed cycle (three times, for
``setup_s``), times whole cycles of calls until the deadline, each after
an in-process calibration loop that scales it to reference speed
(``proc.at_reference_speed``), and prints one JSON object.  The trace
run imports :func:`kernel_ops` and calls the same operations in its own
process.

    python3 -S perfbench/kernels.py SEED SECONDS [--tamper]

``run.py`` starts it with the benchmark's pinned environment, with ``src``
on ``PYTHONPATH``, and reads its peak memory from ``wait4``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from math import comb
from typing import Callable

import gen
import oracle
import proc

# Three sizes per kernel; the largest show today's superlinear costs.
KUNNETH_DIMS = (10, 20, 30)
DIAMOND_DIMS = (10, 20, 40)
CLASS_WIDTHS = (16, 32, 64)
MUL_WIDTHS = (64, 128, 256)
LEDGER_COMPONENTS = (100, 200, 400)
CONSISTENCY_N = (51, 101, 201)
SETUP_REPEATS = 3


@dataclass(frozen=True)
class KernelOp:
    name: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _diamond_ops(flipcheck, rng) -> list[KernelOp]:
    hodge = flipcheck.hodge
    ops = []
    for d in KUNNETH_DIMS:
        a_entries = gen.dense_diamond(rng, d)
        b_entries = gen.dense_diamond(rng, d)
        a = hodge.HodgeDiamond(d, a_entries)
        b = hodge.HodgeDiamond(d, b_entries)
        want = sum(a_entries.values()) * sum(b_entries.values())

        def check(out, want=want, d=d):
            got = sum(out.entries().values())
            if out.dim != 2 * d or got != want:
                return f"kunneth total {got}, product of totals {want}"
            return None
        ops.append(KernelOp("hodge.kunneth", d,
                            lambda a=a, b=b: hodge.kunneth(a, b), check))
    for d in DIAMOND_DIMS:
        entries = gen.dense_diamond(rng, d)
        x = hodge.HodgeDiamond(d, entries)
        even, odd = oracle.parity_totals(entries)
        want_sym2 = comb(even + 1, 2) + even * odd + comb(odd, 2)
        e = oracle.euler(entries)
        want_euler = e * (e + 1) // 2 + (d - 1) * e

        def check_sym2(out, want=want_sym2):
            got = sum(out.entries().values())
            return None if got == want else f"sym2 total {got}, expected {want}"

        def check_hilb2(out, want=want_euler):
            got = oracle.euler(out.entries())
            return None if got == want else f"e(X^[2]) {got}, expected {want}"
        ops.append(KernelOp("hodge.sym2", d, lambda x=x: hodge.sym2(x),
                            check_sym2))
        ops.append(KernelOp("hodge.hilbert_square", d,
                            lambda x=x: hodge.hilbert_square(x), check_hilb2))
    return ops


def _class_ops(flipcheck, rng) -> list[KernelOp]:
    motive = flipcheck.motive
    MotiveExpr = motive.MotiveExpr
    ops = []
    for k in CLASS_WIDTHS:
        poly = gen.wide_class(rng, k, "x")
        poly[(0, ())] = 1
        x = MotiveExpr(poly)
        values = {}
        for (_, mono) in poly:
            for name in mono:
                values[name] = rng.randint(1, 5)
                values["Sym2_" + name] = comb(values[name] + 1, 2)
        s = oracle.specialize(poly.items(), values, 1)
        n = rng.randint(2, 5)

        def check_sym2(out, values=values, want=comb(s + 1, 2)):
            got = oracle.specialize(out.terms.items(), values, 1)
            return None if got == want else f"Sym2 at L=1 {got}, expected {want}"

        def check_hilb2(out, values=values, want=comb(s + 1, 2) + (n - 1) * s):
            got = oracle.specialize(out.terms.items(), values, 1)
            return None if got == want else f"[X^[2]] at L=1 {got}, expected {want}"
        ops.append(KernelOp("motive.sym2_class", k,
                            lambda x=x: motive.sym2_class(x), check_sym2))
        ops.append(KernelOp("motive.hilbert_square_class", k,
                            lambda x=x, n=n: motive.hilbert_square_class(x, n),
                            check_hilb2))
    for k in MUL_WIDTHS:
        pa = gen.wide_class(rng, k, "p")
        pb = gen.wide_class(rng, k, "q")
        for key in list(pb)[::3]:
            pb[key] = -pb[key]
        a, b = MotiveExpr(pa), MotiveExpr(pb)
        values = {name: rng.randint(-3, 3) for (_, m) in [*pa, *pb] for name in m}
        want = (oracle.specialize(pa.items(), values, 3)
                * oracle.specialize(pb.items(), values, 3))

        def check_mul(out, values=values, want=want):
            got = oracle.specialize(out.terms.items(), values, 3)
            return None if got == want else f"product at L=3 {got}, expected {want}"
        ops.append(KernelOp("motive.mul", k, lambda a=a, b=b: a * b, check_mul))
    return ops


def _ledger_ops(flipcheck, rng) -> list[KernelOp]:
    sod = flipcheck.sod
    ops = []
    for m in LEDGER_COMPONENTS:
        comps = gen.mixed_components(rng, m)
        n = rng.randint(2, 6)

        def check_sym2(out, want=2 * m + comb(m, 2)):
            got = out.total()
            return None if got == want else f"sym2 ledger total {got}, expected {want}"

        def check_hilb2(out, want=2 * m + comb(m, 2) + (n - 2) * m):
            got = out.total()
            return None if got == want else f"hilb2 ledger total {got}, expected {want}"
        ops.append(KernelOp("sod.sym2_ledger", m,
                            lambda c=comps: sod.sym2_ledger(c), check_sym2))
        ops.append(KernelOp("sod.hilb2_ledger", m,
                            lambda c=comps, n=n: sod.hilb2_ledger(c, n),
                            check_hilb2))
    for n in CONSISTENCY_N:
        want = oracle.two_quadrics_hilb2_ledger(n)

        def check(out, want=want):
            got = dict(out.hilb2.multiplicities)
            if not out.holds or got != want:
                return f"consistency holds={out.holds}, ledger {got}, expected {want}"
            return None
        ops.append(KernelOp("sod.conjecture_consistency", n,
                            lambda n=n: sod.conjecture_consistency(n), check))
    return ops


def kernel_ops(flipcheck, seed: int) -> list[KernelOp]:
    """One cycle of the kernels workload, every kernel at every size, in a
    seeded order."""
    rng = random.Random(seed)
    ops = _diamond_ops(flipcheck, rng) + _class_ops(flipcheck, rng) \
        + _ledger_ops(flipcheck, rng)
    rng.shuffle(ops)
    return ops


def timed_call(op: KernelOp) -> tuple[int, str | None]:
    """(elapsed ns, failure reason or None); an op over the per-op timeout
    is stopped and counted as failed."""
    start = time.perf_counter_ns()
    try:
        with proc.deadline():
            out = op.call()
    except proc.OpTimeout as exc:
        return time.perf_counter_ns() - start, str(exc)
    except Exception as exc:  # a crash in flipcheck is a failed op
        return time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, op.check(out)


def main(argv: list[str]) -> int:
    seed, seconds = int(argv[0]), float(argv[1])
    tamper = "--tamper" in argv[2:]
    import flipcheck

    def setup():
        ops = kernel_ops(flipcheck, seed)
        for op in ops:  # one untimed cycle
            op.call()
        return ops
    ops, setup_s = proc.timed_setups(setup, SETUP_REPEATS, proc.calibration_inline_ns,
                                     proc.REF_INLINE_NS)

    raw_ns, cal_ns, failures, cycles = [], [], [], []
    start = time.perf_counter()
    while len(raw_ns) < proc.MIN_SAMPLES or (
            time.perf_counter() - start + statistics.fmean(cycles) <= seconds):
        cycle_start = time.perf_counter()
        for op in ops:
            proc.pin_quietest_cpu()
            cal_ns.append(proc.calibration_inline_ns())
            elapsed, reason = timed_call(op)
            if tamper and not raw_ns:
                # check the output of the same kernel at another size
                other = next(o for o in ops if o.name == op.name and o is not op)
                reason = op.check(other.call())
            raw_ns.append(elapsed)
            if reason:
                failures.append(f"{op.name}[{op.size}]: {reason}")
        cycles.append(time.perf_counter() - cycle_start)
    latencies = proc.at_reference_speed(raw_ns, cal_ns, proc.REF_INLINE_NS)
    print(json.dumps({"setup_s": setup_s, "latencies_ns": latencies, "raw_ns": raw_ns,
                      "labels": [f"{op.name}[{op.size}]" for op in ops],
                      "failures": failures, "cycles": len(cycles),
                      "measured_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
