"""Acceptance suite: every headline number and identity, one test per
criterion, exact integer comparisons throughout, each with its runtime
ceiling.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS lines."""

import random
import time

from flipcheck import dsl, fano, hodge, motive, sod, varieties
from flipcheck.cli import random_value


def run_criterion(number: int, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: "
          f"{elapsed * 1000:.1f} ms (budget {budget_s * 1000:.0f} ms)")
    assert ok, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_hilbert_square_of_quartic_double_solid():
    def body():
        h = hodge.hilbert_square(varieties.builtin("quartic-double-solid"))
        assert hodge.diagonal(h) == [1, 2, 4, 104, 4, 2, 1]
        assert hodge.hh0(h) == 118

    run_criterion(1, 0.1, body)


def test_criterion_2_fano_surface_obstruction():
    def body():
        f1 = varieties.builtin("f1-quartic-double-solid")
        assert hodge.hh0(f1) == 222
        ambient = hodge.hilbert_square(varieties.builtin("quartic-double-solid"))
        verdict = sod.embedding_obstruction(hodge.hh0(f1), hodge.hh0(ambient))
        assert verdict == "OBSTRUCTED"

    run_criterion(2, 0.1, body)


def test_criterion_3_degree2_surface_counts():
    def body():
        led = sod.sym2_ledger(["Dpt"] * 10)
        assert led.total() == 65 == 10 * 9 // 2 + 2 * 10
        assert sod.embedding_obstruction(56, led.total()) == "INCONCLUSIVE"

    run_criterion(3, 0.1, body)


def test_criterion_4_conjecture_consistency():
    def body():
        for n in range(5, 16, 2):
            result = sod.conjecture_consistency(n)
            assert result.in_stated_range and result.holds, n
        # the verified instance at n = 5: 8 = 2 + 6 curve copies,
        # 26 = 2 + 24 exceptional objects
        hilb2 = sod.hilb2_two_quadrics_ledger(5).multiplicities
        fano_led = sod.fano_scheme_conjecture_ledger(5).multiplicities
        ogr = sod.ogr_pencil_conjecture_ledger(5).multiplicities
        assert hilb2["DC"] == 8 == fano_led["DC"] + ogr["DC"]
        assert fano_led["DC"] == 2 and ogr["DC"] == 6
        assert hilb2["Dpt"] == 26 == fano_led["Dpt"] + ogr["Dpt"]
        assert fano_led["Dpt"] == 2 and ogr["Dpt"] == 24

    run_criterion(4, 0.5, body)


def test_criterion_5_codimension_identities():
    def body():
        for family in ("cubic", "two-quadrics"):
            for k in range(7):
                for n in range(k, 31):
                    assert fano.verify_codim_identity(family, n, k).passed
                assert fano.verify_codim_identity_symbolic(family, k)
        for n in range(2, 7):
            report = fano.verify_codim_identity("gr25", n, 0)
            assert report.passed
            assert report.checks[-1].rhs == 2 * n - 3
        for n in (4, 5, 6):
            report = fano.verify_codim_identity("gr25", n, 1)
            assert report.passed
            assert report.checks[-2].rhs == 3 * n - 11

    run_criterion(5, 2.0, body)


def test_criterion_6_gr25_dimension_table():
    def body():
        expected = {
            2: (0, None, None, None),
            3: (2, None, None, None),
            4: (4, 1, 0, None),
            5: (6, 4, 3, 0),
            6: (8, 7, 6, 4),
        }
        for n, (f1, f2s, f2t, f3) in expected.items():
            row = fano.gr25_dim_row(n)
            assert (row.f1, row.f2_sigma, row.f2_tau, row.f3) == \
                (f1, f2s, f2t, f3)
        assert fano.emptiness_threshold("gr25", 5, 2) == "disjoint_union"
        assert fano.emptiness_threshold("gr25", 6, 2) == "disjoint_union"

    run_criterion(6, 0.1, body)


def test_criterion_7_line_splittings():
    def body():
        assert fano.enumerate_line_splittings(2) == [(-1,)]
        for n in range(3, 31):
            types = fano.enumerate_line_splittings(n)
            assert types == sorted([
                tuple(sorted((0, 0) + (1,) * (n - 3))),
                tuple(sorted((-1,) + (1,) * (n - 2))),
            ])
        for n in range(2, 10):
            assert fano.enumerate_line_splittings(n) == \
                fano.brute_force_line_splittings(n)
        for n in range(2, 31):
            got = fano.hilb2_normal_restriction(n)
            assert got == tuple(sorted((-1, -1) + (0,) * (2 * n - 4)))

    run_criterion(7, 1.0, body)


def test_criterion_8_tautological_splittings():
    def body():
        for d in (-1, 0, 1):
            rows = fano.verify_taut_splitting(d, range(-5, 6))
            assert all(row.passed for row in rows)
            for row in rows:
                assert row.lhs == row.rhs
                assert row.lhs[1] == 0

    run_criterion(8, 0.5, body)


def test_criterion_9_motivic_flip_identity():
    def body():
        x, xp, f = (motive.MotiveExpr.atom(a) for a in ("X", "Xp", "F"))
        for r in range(6):
            for s in range(6):
                left = motive.blowup_class(x, f * motive.class_of_pn(r), s + 1)
                right = motive.blowup_class(xp, f * motive.class_of_pn(s), r + 1)
                assert left - right == \
                    (x - xp) - motive.flip_difference(f, r, s)
            assert not motive.flip_difference(f, r, r)
        assert motive.hilbert_square_class(motive.class_of_pn(1), 1) == \
            motive.class_of_pn(2)
        squared = motive.hilbert_square_class(motive.class_of_pn(2), 2)
        assert squared.l_coefficients() == [1, 2, 3, 2, 1]

    run_criterion(9, 0.5, body)


def _sym2_oracle(d, self_parity=0):
    """Sym^2 by counting basis pairs; ``self_parity=1`` gives Lambda^2."""
    basis = []
    for (p, q), m in sorted(d.entries().items()):
        basis.extend([(p, q)] * m)
    table = {}
    for i, (p1, q1) in enumerate(basis):
        if (p1 + q1) % 2 == self_parity:
            key = (2 * p1, 2 * q1)
            table[key] = table.get(key, 0) + 1
        for (p2, q2) in basis[i + 1:]:
            key = (p1 + p2, q1 + q2)
            table[key] = table.get(key, 0) + 1
    return hodge.HodgeDiamond(2 * d.dim, table)


def _sum_tables(dim, parts):
    table = {}
    for part in parts:
        for key, v in part.entries().items():
            table[key] = table.get(key, 0) + v
    return hodge.HodgeDiamond(dim, table)


def _random_small_diamond(rng):
    while True:
        dim = rng.randint(0, 3)
        entries = {}
        for _ in range(rng.randint(0, 4)):  # a cell and its mirror alike
            p, q, v = rng.randint(0, dim), rng.randint(0, dim), rng.randint(1, 3)
            for key in {(p, q), (q, p)}:
                entries[key] = entries.get(key, 0) + v
        if sum(entries.values()) <= 8:
            return hodge.HodgeDiamond(dim, entries)


def test_criterion_10_property_suites():
    def body():
        # symmetric-square oracle: genus sweep plus random small tables
        for g in range(5):
            c = varieties.curve(g)
            assert hodge.sym2(c) == _sym2_oracle(c)
        rng = random.Random(1729)
        for _ in range(50):
            d = _random_small_diamond(rng)
            assert hodge.sym2(d) == _sym2_oracle(d)
            assert _sum_tables(2 * d.dim, [hodge.sym2(d), _sym2_oracle(d, 1)]) == \
                hodge.kunneth(d, d)

        # parser round trip on generated values
        rng = random.Random(271828)
        for _ in range(1000):
            value = random_value(rng)
            assert dsl.evaluate(dsl.parse(dsl.print_canonical(value))) == value

        # parser totality: random byte strings up to 4 KiB never crash
        rng = random.Random(314159)
        for _ in range(10_000):
            data = rng.randbytes(rng.randint(0, 4096))
            try:
                dsl.parse(data.decode("utf-8", errors="replace"))
            except dsl.ParseError:
                pass

    run_criterion(10, 30.0, body)
