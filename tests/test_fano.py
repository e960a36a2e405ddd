import random
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipcheck import fano
from flipcheck.fano import (FlipShape, brute_force_line_splittings, check_cell,
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
    assert expected_dim_fano("cubic", 3, 1) == 2  # lines on a threefold
    for n in range(1, 20):
        assert expected_dim_fano("cubic", n, 0) == n  # 0-planes = X


def test_two_quadrics_dims():
    assert expected_dim_fano("two-quadrics", 3, 1) == 2
    for n in range(1, 20):
        assert expected_dim_fano("two-quadrics", n, 0) == n
    # 16 lines on the quartic del Pezzo surface: zero-dimensional
    assert expected_dim_fano("two-quadrics", 2, 1) == 0


def test_gr25_dim_table_verbatim():
    rows = {n: gr25_dim_row(n) for n in range(2, 7)}
    assert [rows[n].f1 for n in range(2, 7)] == [0, 2, 4, 6, 8]
    assert [rows[n].f2_sigma for n in range(2, 7)] == [None, None, 1, 4, 7]
    assert [rows[n].f2_tau for n in range(2, 7)] == [None, None, 0, 3, 6]
    assert [rows[n].f3 for n in range(2, 7)] == [None, None, None, 0, 4]
    with pytest.raises(ValueError):
        gr25_dim_row(7)
    with pytest.raises(ValueError, match="table"):
        expected_dim_fano("gr25", 5, 2)


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
        check_cell("cubic", 3, -1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        check_cell("cubic", 0, 0)
    with pytest.raises(ValueError, match="^k = 3 exceeds n = 2$"):
        check_cell("cubic", 2, 3)
    with pytest.raises(ValueError, match="^k_planes must be nonnegative$"):
        expected_dim_fano("cubic", 3, -1)
    with pytest.raises(ValueError, match="^need n >= 1 and k >= 0$"):
        emptiness_threshold("cubic", 0, 0)
    with pytest.raises(ValueError,
                       match=r"^Gr\(2,5\) sections have 2 <= dim X <= 6$"):
        check_cell("gr25", 7, 0)
    check_cell("gr25", 6, 6)
    fano.check_family("cubic")
    with pytest.raises(ValueError):
        fano.check_family("quartic")


@pytest.mark.parametrize("func", [
    check_cell, expected_dim_fano, emptiness_threshold, flip_shapes,
    verify_codim_identity, verify_codim_identity_symbolic, sod_counts],
    ids=lambda func: func.__name__)
def test_unknown_family_is_refused_with_one_message(func):
    """Every function that takes a family refuses a name outside
    ``FAMILIES`` with the same message, and answers nothing for it."""
    args = (1,) if func is verify_codim_identity_symbolic else (3, 1)
    with pytest.raises(ValueError) as info:
        func("quartic", *args)
    assert str(info.value) == ("unknown family 'quartic'; expected one of "
                               "cubic, two-quadrics, gr25")


# -- emptiness regimes ------------------------------------------------------------


def test_cubic_regimes():
    # n = 1: X is a cubic curve; points exist, lines do not
    assert emptiness_threshold("cubic", 1, 0) == "F_k1_empty_flip_degenerates"
    # no 2-planes on a cubic threefold
    assert emptiness_threshold("cubic", 3, 2) == "F_k_empty"
    assert emptiness_threshold("cubic", 3, 0) == "nonempty_expected"


def test_cubic_thresholds_match_expected_dims():
    for n, k in GRID:
        if k > n:
            continue
        regime = emptiness_threshold("cubic", n, k)
        f_k = expected_dim_fano("cubic", n, k)
        f_k1 = expected_dim_fano("cubic", n, k + 1)
        if f_k < 0:
            assert regime == "F_k_empty", (n, k)
        elif f_k1 < 0:
            assert regime == "F_k1_empty_flip_degenerates", (n, k)
        else:
            assert regime == "nonempty_expected", (n, k)


def test_two_quadrics_regimes():
    # elliptic curve: conic pairs exist, no lines, flip collapses
    assert emptiness_threshold("two-quadrics", 1, 0) == \
        "F_k1_empty_flip_degenerates"
    # the quartic del Pezzo surface has its 16 lines: genuine flip
    assert emptiness_threshold("two-quadrics", 2, 0) == "nonempty_expected"
    assert emptiness_threshold("two-quadrics", 1, 1) == "F_k_empty"
    for n, k in GRID:
        regime = emptiness_threshold("two-quadrics", n, k)
        if regime == "F_k1_empty_flip_degenerates":
            assert expected_dim_fano("two-quadrics", n, k + 1) < 0
        if regime == "nonempty_expected":
            assert expected_dim_fano("two-quadrics", n, k + 1) >= 0


def test_two_quadrics_regimes_from_the_witt_index():
    """A k-dimensional quadric in X spans a (k+1)-plane inside a member of
    the pencil.  A general pencil in n + 3 variables has members of corank
    at most 1, whose isotropic subspaces have dimension at most
    ``1 + floor((n+2)/2)``; X holds j-planes iff ``n >= 2j`` (Reid).  So
    ``G_k`` is empty for ``n < 2k``, degenerate for ``n = 2k, 2k + 1`` and
    a flip from ``n = 2k + 2`` on."""
    def regime(n, k):
        if k + 2 > 1 + (n + 2) // 2:
            return "F_k_empty"
        if n < 2 * (k + 1):
            return "F_k1_empty_flip_degenerates"
        return "nonempty_expected"

    cells = [(n, k) for n in range(1, 13) for k in range(7)]
    wrong = [(n, k) for n, k in cells
             if emptiness_threshold("two-quadrics", n, k) != regime(n, k)]
    assert wrong == []
    assert regime(6, 3) == "F_k1_empty_flip_degenerates"
    assert regime(8, 3) == "nonempty_expected"
    # both empty labels are degenerate, so the shapes are those of the bound
    for n, k in cells:
        if k <= n:
            s = 1 if regime(n, k) == "nonempty_expected" else -1
            assert flip_shapes("two-quadrics", n, k) == \
                [FlipShape(comb(k + 3, 2) - 1, s)], (n, k)


# -- the two-quadrics regimes over F_3 -------------------------------------------


def _echelon_add(echelon: dict, v: list, p: int) -> bool:
    """Reduce ``v`` over F_p against ``echelon`` (pivot column -> row with 1
    there and 0 before it) and add what is left; False when nothing is."""
    for col in range(len(v)):
        if v[col] and col in echelon:
            c = v[col]
            v = [(a - c * b) % p for a, b in zip(v, echelon[col])]
    pivot = next((col for col, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    inverse = pow(v[pivot], p - 2, p)
    echelon[pivot] = [a * inverse % p for a in v]
    return True


def _kernel(rows: list, n: int, p: int) -> list:
    """A basis of the ``x`` in F_p^n with ``r . x = 0`` for every row r."""
    echelon: dict = {}
    for r in rows:
        _echelon_add(echelon, r, p)
    for col in sorted(echelon, reverse=True):  # to reduced row echelon form
        for other, row in echelon.items():
            if other < col and row[col]:
                c = row[col]
                echelon[other] = [(a - c * b) % p
                                  for a, b in zip(row, echelon[col])]
    basis = []
    for free in (col for col in range(n) if col not in echelon):
        x = [0] * n
        x[free] = 1
        for col, row in echelon.items():
            x[col] = -row[free] % p
        basis.append(x)
    return basis


def _times(m: list, v: list, p: int) -> list:
    return [sum(a * b for a, b in zip(row, v)) % p for row in m]


def _largest_isotropic(m: list, p: int) -> int:
    """Dimension of the largest totally isotropic subspace of ``x^T m x``
    over F_p, p odd, by greedy extension: every maximal one has the same
    dimension, so the first maximal one found is a largest.  Each step
    looks for an isotropic vector among the combinations of a basis of
    the complement of W in W^perp, which is anisotropic, so of dimension
    at most 2, when W is maximal."""
    n = len(m)
    dim, echelon = 0, {}  # W, by an echelon basis
    while True:
        perp = _kernel([_times(m, w, p) for w in echelon.values()], n, p)
        extended = dict(echelon)
        rest = [v for v in perp if _echelon_add(extended, v, p)]
        for coeffs in product(range(p), repeat=len(rest)):
            v = [sum(c * r[i] for c, r in zip(coeffs, rest)) % p
                 for i in range(n)]
            value = sum(a * b for a, b in zip(v, _times(m, v, p))) % p
            if any(v) and value == 0:
                break
        else:
            return dim
        _echelon_add(echelon, v, p)
        dim += 1


def _pencil(rng: random.Random, n: int, p: int) -> list | None:
    """The p + 1 members over F_p of a random pencil of quadrics in n
    variables, or None when one of them has corank 2 or more."""
    a, b = ([[0] * n for _ in range(n)] for _ in range(2))
    for m in (a, b):
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(p)
    members = [[[(s * x + t * y) % p for x, y in zip(ra, rb)]
                for ra, rb in zip(a, b)]
               for s, t in [(0, 1)] + [(1, t) for t in range(p)]]
    if any(len(_kernel(m, n, p)) > 1 for m in members):
        return None
    return members


@pytest.mark.parametrize("n", [5, 6])
def test_two_quadrics_regimes_over_f3(n):
    """The ``F_q`` side of the regimes above.  Over F_3, pencils whose
    members all have corank at most 1: X holds a k-dimensional quadric only
    if some member holds a totally isotropic subspace of dimension k + 2,
    so a cell called ``F_k_empty`` has no member with one.  A small field
    may miss the subspaces of a nonempty cell, so that side holds for
    these seeded draws: at (6, 3), 3 of the 6 pencils have a corank-1
    member with one of dimension 5."""
    rng = random.Random(28 + n)
    largest = 0
    for _ in range(6):
        members = None
        while members is None:
            members = _pencil(rng, n + 3, 3)
        largest = max(largest, *(_largest_isotropic(m, 3) for m in members))
    assert largest <= 1 + (n + 2) // 2
    for k in range(5):
        empty = emptiness_threshold("two-quadrics", n, k) == "F_k_empty"
        assert empty == (largest < k + 2), k


def test_gr25_regimes():
    for n in range(2, 7):
        assert emptiness_threshold("gr25", n, 0) == "nonempty_expected"
    assert emptiness_threshold("gr25", 3, 1) == "F_k1_empty_flip_degenerates"
    assert emptiness_threshold("gr25", 4, 1) == "nonempty_expected"
    # the k = 2 disjoint-union regime is its own thing, not a flip
    assert emptiness_threshold("gr25", 5, 2) == "disjoint_union"
    assert emptiness_threshold("gr25", 4, 2) == "F_k1_empty_flip_degenerates"
    assert emptiness_threshold("gr25", 6, 3) == "F_k1_empty_flip_degenerates"


# -- flip shapes -------------------------------------------------------------------


def test_flip_shape_cubic_k0():
    [shape] = flip_shapes("cubic", 3, 0)
    assert (shape.r, shape.s) == (2, 1)


def test_flip_shape_two_quadrics_always_pencil():
    for k in range(5):
        [shape] = flip_shapes("two-quadrics", 2 * k + 4, k)
        assert shape.s == 1
        assert shape.r == comb(k + 3, 2) - 1


def test_flip_shape_gr25_components():
    sigma, tau = flip_shapes("gr25", 6, 1)
    assert (sigma.r, sigma.s) == (5, 0)
    assert (tau.r, tau.s) == (5, 1)
    [shape] = flip_shapes("gr25", 5, 0)
    assert shape.s == 1


def test_flip_shape_degenerate_marker():
    [shape] = flip_shapes("cubic", 1, 0)
    assert shape.s == -1 and shape.is_degenerate()
    # past k = 1 a Gr(2,5) section's flip degenerates (at k = 2, n >= 5 it is
    # a disjoint union): one shape with the marker
    for n in range(2, 7):
        for k in range(2, n + 1):
            assert flip_shapes("gr25", n, k) == \
                [FlipShape(comb(k + 3, 2) - 1, -1)], (n, k)


def test_flip_shape_r_at_least_s_everywhere():
    for n, k in GRID:
        for family in ("cubic", "two-quadrics"):
            for shape in flip_shapes(family, n, k):
                if not shape.is_degenerate():
                    assert shape.r >= shape.s, (family, n, k)
    for n in range(2, 7):
        for k in (0, 1):
            for shape in flip_shapes("gr25", n, k):
                if not shape.is_degenerate():
                    assert shape.r >= shape.s, (n, k)


# -- codimension identities ----------------------------------------------------------


def test_codim_cubic_k0_closed_form():
    for n in range(3, 31):
        report = verify_codim_identity("cubic", n, 0)
        assert report.passed
        assert report.checks[0].lhs == 2 * n - 3


def test_codim_gr25_spot_values():
    report = verify_codim_identity("gr25", 4, 0)
    assert report.passed
    assert report.checks[0].lhs == 5
    report = verify_codim_identity("gr25", 6, 1)
    assert report.passed
    assert report.checks[-2].rhs == 3 * 6 - 11
    with pytest.raises(ValueError):
        verify_codim_identity("gr25", 3, 1)
    with pytest.raises(ValueError):
        verify_codim_identity("gr25", 5, 2)


def test_codim_full_grids():
    for n, k in GRID:
        assert verify_codim_identity("cubic", n, k).passed, (n, k)
        assert verify_codim_identity("two-quadrics", n, k).passed, (n, k)
    for n in range(2, 7):
        assert verify_codim_identity("gr25", n, 0).passed
    for n in (4, 5, 6):
        assert verify_codim_identity("gr25", n, 1).passed


def test_codim_symbolic():
    for k in range(7):
        assert verify_codim_identity_symbolic("cubic", k)
        assert verify_codim_identity_symbolic("two-quadrics", k)
    with pytest.raises(ValueError):
        verify_codim_identity_symbolic("gr25", 0)


def test_codim_report_json_shape():
    report = verify_codim_identity("cubic", 3, 0)
    data = report.to_json_dict()
    assert data["family"] == "cubic" and data["n"] == 3 and data["k"] == 0
    assert all(c["pass"] for c in data["checks"])


# -- decomposition counts --------------------------------------------------------------


def test_sod_counts_cubic_k0():
    counts = sod_counts("cubic", 3, 0)
    assert counts["flip_form"] == SodLedger({"D_PQ": 1, "D_F1": 1})
    assert counts["expanded_form"] == SodLedger({"D_F0": 4, "D_F1": 1})


def test_sod_counts_cubic_k1():
    counts = sod_counts("cubic", 6, 1)
    assert counts["flip_form"].multiplicities["D_F2"] == comb(4, 2) - 3 == 3


def test_sod_counts_two_quadrics_k0():
    counts = sod_counts("two-quadrics", 5, 0)
    assert counts["flip_form"] == SodLedger({"D_OGr": 1, "D_F1": 1})
    assert "expanded_form" not in counts


def test_sod_counts_two_form_trade():
    for k in range(4):
        for n in range(max(k, 1), 12):
            counts = sod_counts("cubic", n, k)
            traded = substitute(counts["flip_form"], "D_PQ",
                                SodLedger({f"D_F{k}": n - k + 1}))
            assert traded == counts["expanded_form"]
            assert counts["expanded_form"].total() \
                - counts["flip_form"].total() == n - k


def test_sod_counts_gr25_not_tabulated():
    with pytest.raises(ValueError):
        sod_counts("gr25", 5, 0)


# -- line splittings ---------------------------------------------------------------------


def test_line_splittings_small_cases():
    assert enumerate_line_splittings(2) == [(-1,)]
    assert enumerate_line_splittings(3) == [(-1, 1), (0, 0)]
    assert enumerate_line_splittings(5) == [(-1, 1, 1, 1), (0, 0, 1, 1)]
    with pytest.raises(ValueError, match="^need n >= 2$"):
        brute_force_line_splittings(1)


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
    [a] = flip_shapes("cubic", 3, 0)
    assert [a] == flip_shapes("cubic", 3, 0)
    assert hash(a) == hash(flip_shapes("cubic", 3, 0)[0])
    assert a != FlipShape(a.r, a.s + 1)
    assert len({verify_codim_identity("cubic", 5, 1),
                verify_codim_identity("cubic", 5, 1)}) == 1
    assert gr25_dim_row(5) == gr25_dim_row(5)
    assert gr25_dim_row(5)._asdict() == {"n": 5, "f1": 6, "f2_sigma": 4,
                                         "f2_tau": 3, "f3": 0}
    assert verify_taut_splitting(0, range(0)) == ()
    assert "expanded_form" not in sod_counts("two-quadrics", 5, 0)
