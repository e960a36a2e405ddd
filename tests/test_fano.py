from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipcheck import fano
from flipcheck.fano import (Family, FlipShape, Regime,
                            brute_force_line_splittings, check_cell,
                            degree_classification,
                            emptiness_threshold, enumerate_line_splittings,
                            expected_dim_fano, flip_shapes,
                            format_splitting, gr25_dim_row,
                            hilb2_normal_restriction,
                            sod_counts, verify_codim_identity,
                            verify_codim_identity_symbolic,
                            verify_taut_splitting)
from flipcheck.sod import SodLedger, substitute

GRID = [(n, k) for k in range(7) for n in range(max(k, 1), 31)]


# -- expected dimensions ---------------------------------------------------------


def test_cubic_dims():
    assert expected_dim_fano(Family.CUBIC, 3, 1) == 2  # lines on a threefold
    for n in range(1, 20):
        assert expected_dim_fano(Family.CUBIC, n, 0) == n  # 0-planes = X


def test_two_quadrics_dims():
    assert expected_dim_fano(Family.TWO_QUADRICS, 3, 1) == 2
    for n in range(1, 20):
        assert expected_dim_fano(Family.TWO_QUADRICS, n, 0) == n
    # 16 lines on the quartic del Pezzo surface: zero-dimensional
    assert expected_dim_fano(Family.TWO_QUADRICS, 2, 1) == 0


def test_gr25_dim_table_verbatim():
    rows = {n: gr25_dim_row(n) for n in range(2, 7)}
    assert [rows[n].f1 for n in range(2, 7)] == [0, 2, 4, 6, 8]
    assert [rows[n].f2_sigma for n in range(2, 7)] == [None, None, 1, 4, 7]
    assert [rows[n].f2_tau for n in range(2, 7)] == [None, None, 0, 3, 6]
    assert [rows[n].f3 for n in range(2, 7)] == [None, None, None, 0, 4]
    with pytest.raises(ValueError):
        gr25_dim_row(7)
    with pytest.raises(ValueError, match="table"):
        expected_dim_fano(Family.GR25_SECTION, 5, 2)


def h0_quotient_dual_twist2(k):
    """h^0 of the twisted dual quotient bundle Q^v(2) on P^{k+1}:
    (k+1)(k+2)(k+3)/3."""
    return (k + 1) * (k + 2) * (k + 3) // 3


def test_gr25_closed_forms_match_table():
    # the sigma/tau dimension counts behind the smoothness bookkeeping
    for n in range(2, 7):
        row = gr25_dim_row(n)
        assert row.f1 == 2 * n - 4
        k = 0  # lines are both sigma and tau spaces
        sigma = (n - k + 2) * (k + 2) - h0_quotient_dual_twist2(k) \
            - (2 - k) * comb(k + 3, 2)
        tau = (n - k + 2) * (k + 2) - (k + 2) - 2 * comb(k + 3, 2)
        assert row.f1 == sigma == tau
        if row.f2_sigma is not None:
            k = 1
            assert row.f2_sigma == 3 * n - 11
            assert row.f2_sigma == (n - k + 2) * (k + 2) \
                - h0_quotient_dual_twist2(k) - (2 - k) * comb(k + 3, 2)
            assert row.f2_tau == 3 * n - 12
            assert row.f2_tau == (n - k + 2) * (k + 2) - (k + 2) \
                - 2 * comb(k + 3, 2)
        if row.f3 is not None:
            k = 2
            assert row.f3 == 4 * n - 20
            assert row.f3 == (n - k + 2) * (k + 2) \
                - h0_quotient_dual_twist2(k) - (2 - k) * comb(k + 3, 2)


def test_h0_quotient_dual_twist2():
    assert [h0_quotient_dual_twist2(k) for k in range(3)] == [2, 8, 20]


def test_params_validation():
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        check_cell(Family.CUBIC, 3, -1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        check_cell(Family.CUBIC, 0, 0)
    with pytest.raises(ValueError, match="^k = 3 exceeds n = 2$"):
        check_cell(Family.CUBIC, 2, 3)
    with pytest.raises(ValueError,
                       match=r"^Gr\(2,5\) sections have 2 <= dim X <= 6$"):
        check_cell(Family.GR25_SECTION, 7, 0)
    check_cell(Family.GR25_SECTION, 6, 6)
    assert fano.parse_family("cubic") is Family.CUBIC
    with pytest.raises(ValueError):
        fano.parse_family("quartic")


# -- emptiness regimes ------------------------------------------------------------


def test_cubic_regimes():
    # n = 1: X is a cubic curve; points exist, lines do not
    assert emptiness_threshold(Family.CUBIC, 1, 0) is \
        Regime.F_K1_EMPTY_FLIP_DEGENERATES
    # no 2-planes on a cubic threefold
    assert emptiness_threshold(Family.CUBIC, 3, 2) is Regime.F_K_EMPTY
    assert emptiness_threshold(Family.CUBIC, 3, 0) is Regime.NONEMPTY_EXPECTED


def test_cubic_thresholds_match_expected_dims():
    for n, k in GRID:
        if k > n:
            continue
        regime = emptiness_threshold(Family.CUBIC, n, k)
        f_k = expected_dim_fano(Family.CUBIC, n, k)
        f_k1 = expected_dim_fano(Family.CUBIC, n, k + 1)
        if f_k < 0:
            assert regime is Regime.F_K_EMPTY, (n, k)
        elif f_k1 < 0:
            assert regime is Regime.F_K1_EMPTY_FLIP_DEGENERATES, (n, k)
        else:
            assert regime is Regime.NONEMPTY_EXPECTED, (n, k)


def test_two_quadrics_regimes():
    # elliptic curve: conic pairs exist, no lines, flip collapses
    assert emptiness_threshold(Family.TWO_QUADRICS, 1, 0) is \
        Regime.F_K1_EMPTY_FLIP_DEGENERATES
    # the quartic del Pezzo surface has its 16 lines: genuine flip
    assert emptiness_threshold(Family.TWO_QUADRICS, 2, 0) is \
        Regime.NONEMPTY_EXPECTED
    assert emptiness_threshold(Family.TWO_QUADRICS, 1, 1) is Regime.F_K_EMPTY
    for n, k in GRID:
        regime = emptiness_threshold(Family.TWO_QUADRICS, n, k)
        if regime is Regime.F_K1_EMPTY_FLIP_DEGENERATES:
            assert expected_dim_fano(Family.TWO_QUADRICS, n, k + 1) < 0
        if regime is Regime.NONEMPTY_EXPECTED:
            assert expected_dim_fano(Family.TWO_QUADRICS, n, k + 1) >= 0


def test_gr25_regimes():
    for n in range(2, 7):
        assert emptiness_threshold(Family.GR25_SECTION, n, 0) is \
            Regime.NONEMPTY_EXPECTED
    assert emptiness_threshold(Family.GR25_SECTION, 3, 1) is \
        Regime.F_K1_EMPTY_FLIP_DEGENERATES
    assert emptiness_threshold(Family.GR25_SECTION, 4, 1) is \
        Regime.NONEMPTY_EXPECTED
    # the k = 2 disjoint-union regime is its own thing, not a flip
    assert emptiness_threshold(Family.GR25_SECTION, 5, 2) is \
        Regime.DISJOINT_UNION
    assert emptiness_threshold(Family.GR25_SECTION, 4, 2) is \
        Regime.F_K1_EMPTY_FLIP_DEGENERATES
    assert emptiness_threshold(Family.GR25_SECTION, 6, 3) is \
        Regime.F_K1_EMPTY_FLIP_DEGENERATES


# -- flip shapes -------------------------------------------------------------------


def test_flip_shape_cubic_k0():
    [shape] = flip_shapes(Family.CUBIC, 3, 0)
    assert (shape.r, shape.s) == (2, 1)


def test_flip_shape_two_quadrics_always_pencil():
    for k in range(5):
        [shape] = flip_shapes(Family.TWO_QUADRICS, 2 * k + 4, k)
        assert shape.s == 1
        assert shape.r == comb(k + 3, 2) - 1


def test_flip_shape_gr25_components():
    sigma, tau = flip_shapes(Family.GR25_SECTION, 6, 1)
    assert (sigma.r, sigma.s) == (5, 0)
    assert (tau.r, tau.s) == (5, 1)
    [shape] = flip_shapes(Family.GR25_SECTION, 5, 0)
    assert shape.s == 1


def test_flip_shape_degenerate_marker():
    [shape] = flip_shapes(Family.CUBIC, 1, 0)
    assert shape.s == -1 and shape.is_degenerate()


def test_flip_shape_r_at_least_s_everywhere():
    for n, k in GRID:
        for family in (Family.CUBIC, Family.TWO_QUADRICS):
            for shape in flip_shapes(family, n, k):
                if not shape.is_degenerate():
                    assert shape.r >= shape.s, (family, n, k)
    for n in range(2, 7):
        for k in (0, 1):
            for shape in flip_shapes(Family.GR25_SECTION, n, k):
                if not shape.is_degenerate():
                    assert shape.r >= shape.s, (n, k)


# -- codimension identities ----------------------------------------------------------


def test_codim_cubic_k0_closed_form():
    for n in range(3, 31):
        report = verify_codim_identity(Family.CUBIC, n, 0)
        assert report.passed
        assert report.checks[0].lhs == 2 * n - 3


def test_codim_gr25_spot_values():
    report = verify_codim_identity(Family.GR25_SECTION, 4, 0)
    assert report.passed
    assert report.checks[0].lhs == 5
    report = verify_codim_identity(Family.GR25_SECTION, 6, 1)
    assert report.passed
    assert report.checks[-2].rhs == 3 * 6 - 11
    with pytest.raises(ValueError):
        verify_codim_identity(Family.GR25_SECTION, 3, 1)
    with pytest.raises(ValueError):
        verify_codim_identity(Family.GR25_SECTION, 5, 2)


def test_codim_full_grids():
    for n, k in GRID:
        assert verify_codim_identity(Family.CUBIC, n, k).passed, (n, k)
        assert verify_codim_identity(Family.TWO_QUADRICS, n, k).passed, (n, k)
    for n in range(2, 7):
        assert verify_codim_identity(Family.GR25_SECTION, n, 0).passed
    for n in (4, 5, 6):
        assert verify_codim_identity(Family.GR25_SECTION, n, 1).passed


def test_codim_symbolic():
    for k in range(7):
        assert verify_codim_identity_symbolic(Family.CUBIC, k)
        assert verify_codim_identity_symbolic(Family.TWO_QUADRICS, k)
    with pytest.raises(ValueError):
        verify_codim_identity_symbolic(Family.GR25_SECTION, 0)


def test_codim_report_json_shape():
    report = verify_codim_identity(Family.CUBIC, 3, 0)
    data = report.to_json_dict()
    assert data["family"] == "cubic" and data["n"] == 3 and data["k"] == 0
    assert all(c["pass"] for c in data["checks"])


# -- decomposition counts --------------------------------------------------------------


def test_sod_counts_cubic_k0():
    counts = sod_counts(Family.CUBIC, 3, 0)
    assert counts.flip_form == SodLedger({"D_PQ": 1, "D_F1": 1})
    assert counts.expanded_form == SodLedger({"D_F0": 5, "D_F1": 1})


def test_sod_counts_cubic_k1():
    counts = sod_counts(Family.CUBIC, 6, 1)
    assert counts.flip_form.multiplicities["D_F2"] == comb(4, 2) - 3 == 3


def test_sod_counts_two_quadrics_k0():
    counts = sod_counts(Family.TWO_QUADRICS, 5, 0)
    assert counts.flip_form == SodLedger({"D_OGr": 1, "D_F1": 1})
    assert counts.expanded_form is None


def test_sod_counts_two_form_trade():
    for k in range(4):
        for n in range(max(k, 1), 12):
            counts = sod_counts(Family.CUBIC, n, k)
            traded = substitute(counts.flip_form, "D_PQ",
                                SodLedger({f"D_F{k}": n - k + 2}))
            assert traded == counts.expanded_form
            assert counts.expanded_form.total() - counts.flip_form.total() \
                == (n - k + 2) - 1


def test_sod_counts_gr25_not_tabulated():
    with pytest.raises(ValueError):
        sod_counts(Family.GR25_SECTION, 5, 0)


# -- line splittings ---------------------------------------------------------------------


def test_line_splittings_small_cases():
    assert enumerate_line_splittings(2) == [(-1,)]
    assert enumerate_line_splittings(3) == [(-1, 1), (0, 0)]
    assert enumerate_line_splittings(5) == [(-1, 1, 1, 1), (0, 0, 1, 1)]


@pytest.mark.parametrize("n", range(2, 10))
def test_line_splittings_against_oracle(n):
    assert enumerate_line_splittings(n) == brute_force_line_splittings(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_pruned_oracle_matches_full_enumeration(n):
    """The unpruned filter over every multiset in the box, as reference."""
    want = sorted(combo for combo in
                  combinations_with_replacement(range(-10, 2), n - 1)
                  if sum(combo) == n - 3)
    assert brute_force_line_splittings(n) == want


@given(st.integers(2, 30))
def test_line_splittings_shape(n):
    types = enumerate_line_splittings(n)
    assert len(types) == (1 if n == 2 else 2)
    for t in types:
        assert len(t) == n - 1
        assert sum(t) == n - 3
        assert all(a <= 1 for a in t)


def test_format_splitting():
    assert format_splitting((-1, 1, 1, 1)) == "O(-1) + O(1)^3"
    assert format_splitting((0, 0)) == "O^2"


# -- the induced splitting on the Hilbert square of a line --------------------------------


def test_hilb2_normal_restriction_values():
    assert hilb2_normal_restriction(2) == (-1, -1)
    assert hilb2_normal_restriction(3) == (-1, -1, 0, 0)
    assert hilb2_normal_restriction(5) == (-1, -1, 0, 0, 0, 0, 0, 0)


@given(st.integers(2, 30))
def test_hilb2_normal_restriction_shape(n):
    got = hilb2_normal_restriction(n)
    assert got.count(-1) == 2 and got.count(0) == 2 * n - 4


# -- tautological splittings on P^2 ---------------------------------------------------------


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_taut_splitting_window(d):
    rows = verify_taut_splitting(d, range(-5, 6))
    assert all(row.passed for row in rows)
    for row in rows:
        assert row.lhs[1] == 0  # no intermediate cohomology anywhere


def test_taut_splitting_spot_values():
    rows = {r.twist: r for r in verify_taut_splitting(1, range(-1, 2))}
    assert rows[0].lhs[0] == 2  # two sections of O(1,0) and of O + O
    rows = {r.twist: r for r in verify_taut_splitting(0, range(0, 1))}
    assert rows[0].lhs[0] == 1  # the structure sheaf
    rows = {r.twist: r for r in verify_taut_splitting(-1, range(-1, 1))}
    assert rows[-1].lhs == rows[-1].rhs == (0, 0, 0)
    assert rows[0].lhs == rows[0].rhs == (0, 0, 0)
    with pytest.raises(ValueError):
        verify_taut_splitting(2, range(0, 1))


# -- degree classification ---------------------------------------------------------------


def test_degree_classification():
    assert degree_classification(3) == "cubic hypersurface in P^{n+1}"
    assert "Gr(2,5)" in degree_classification(5)
    assert "2 <= dim X <= 6" in degree_classification(5)
    assert degree_classification(9) == "P^2"
    assert degree_classification(4).startswith(
        "complete intersection of 2 quadric")
    for d in (0, 10):
        with pytest.raises(ValueError):
            degree_classification(d)


# -- value records -----------------------------------------------------------------


def test_records_compare_and_hash_by_value():
    assert repr(FlipShape(1, 0)) == "FlipShape(r=1, s=0)"
    [a] = flip_shapes(Family.CUBIC, 3, 0)
    assert [a] == flip_shapes(Family.CUBIC, 3, 0)
    assert hash(a) == hash(flip_shapes(Family.CUBIC, 3, 0)[0])
    assert a != FlipShape(a.r, a.s + 1)
    assert len({verify_codim_identity(Family.CUBIC, 5, 1),
                verify_codim_identity(Family.CUBIC, 5, 1)}) == 1
    assert gr25_dim_row(5) == gr25_dim_row(5)
    assert gr25_dim_row(5)._asdict() == {"n": 5, "f1": 6, "f2_sigma": 4,
                                         "f2_tau": 3, "f3": 0}
    assert verify_taut_splitting(0, range(0)) == ()
    assert sod_counts(Family.TWO_QUADRICS, 5, 0).expanded_form is None
