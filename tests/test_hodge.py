import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipcheck import hodge, sod, varieties
from flipcheck.hodge import (HodgeDiamond, diagonal, euler, hh0,
                             hilbert_square, kunneth, sym2)


# -- oracles -------------------------------------------------------------------


def _signed_basis(d):
    """One (p, q) per unit of cohomology."""
    basis = []
    for (p, q), m in sorted(d.entries().items()):
        basis.extend([(p, q)] * m)
    return basis


def sym2_oracle(d):
    """Count +1-eigenvectors of the swap-with-sign involution on a basis of
    the self-tensor-square: each unordered pair of distinct basis elements
    contributes one, and x (x) x survives exactly in even degree."""
    basis = _signed_basis(d)
    table = {}
    for i, (p1, q1) in enumerate(basis):
        if (p1 + q1) % 2 == 0:
            key = (2 * p1, 2 * q1)
            table[key] = table.get(key, 0) + 1
        for (p2, q2) in basis[i + 1:]:
            key = (p1 + p2, q1 + q2)
            table[key] = table.get(key, 0) + 1
    return HodgeDiamond(2 * d.dim, table)


def alt2_oracle(d):
    basis = _signed_basis(d)
    table = {}
    for i, (p1, q1) in enumerate(basis):
        if (p1 + q1) % 2 == 1:
            key = (2 * p1, 2 * q1)
            table[key] = table.get(key, 0) + 1
        for (p2, q2) in basis[i + 1:]:
            key = (p1 + p2, q1 + q2)
            table[key] = table.get(key, 0) + 1
    return HodgeDiamond(2 * d.dim, table)


@st.composite
def diamonds(draw, max_dim=3, max_cells=5, max_value=5):
    dim = draw(st.integers(0, max_dim))
    entries = {}
    for _ in range(draw(st.integers(0, max_cells))):
        p = draw(st.integers(0, dim))
        q = draw(st.integers(0, dim))
        entries[(p, q)] = entries.get((p, q), 0) + draw(st.integers(1, max_value))
    return HodgeDiamond(dim, entries)


small_diamonds = diamonds(max_dim=3, max_cells=3, max_value=3).filter(
    lambda d: sum(d.entries().values()) <= 8)


# -- pairwise references for the packed kernel ----------------------------------
#
# The entry-by-entry loops the packed kernel replaced, kept as references.


def kunneth_pairwise(a, b):
    table = {}
    for (p1, q1), v1 in a.entries().items():
        for (p2, q2), v2 in b.entries().items():
            key = (p1 + p2, q1 + q2)
            table[key] = table.get(key, 0) + v1 * v2
    return HodgeDiamond(a.dim + b.dim, table)


def _square_pairwise(a, even_self, odd_self):
    items = sorted(a.entries().items())
    table = {}
    for i, ((p1, q1), m1) in enumerate(items):
        key = (2 * p1, 2 * q1)
        c = even_self(m1) if (p1 + q1) % 2 == 0 else odd_self(m1)
        if c:
            table[key] = table.get(key, 0) + c
        for (p2, q2), m2 in items[i + 1:]:
            key = (p1 + p2, q1 + q2)
            table[key] = table.get(key, 0) + m1 * m2
    return HodgeDiamond(2 * a.dim, table)


def sym2_pairwise(a):
    return _square_pairwise(a, lambda m: m * (m + 1) // 2,
                            lambda m: m * (m - 1) // 2)


def alt2_pairwise(a):
    return _square_pairwise(a, lambda m: m * (m - 1) // 2,
                            lambda m: m * (m + 1) // 2)


def tate_twist(a, i):
    """Shift every entry by ``(i, i)``: a raw table of dimension ``dim + i``."""
    return HodgeDiamond(a.dim + i, {(p + i, q + i): v
                                    for (p, q), v in a.entries().items()})


def _sum_tables(dim, parts):
    table = {}
    for part in parts:
        for key, v in part.entries().items():
            table[key] = table.get(key, 0) + v
    return HodgeDiamond(dim, table)


def hilbert_square_pairwise(a):
    n = a.dim
    parts = [sym2_pairwise(a)] + [tate_twist(a, i) for i in range(1, n)]
    return _sum_tables(2 * n, parts)


def projective_bundle_pairwise(base, r):
    return _sum_tables(base.dim + r - 1,
                       [tate_twist(base, i) for i in range(r)])


def blowup_pairwise(total, center, codim):
    parts = [total] + [tate_twist(center, i) for i in range(1, codim)]
    return _sum_tables(total.dim, parts)


def assert_same(got, want):
    """Entries and dimension, compared directly rather than through ``==``."""
    assert (got.dim, got.entries()) == (want.dim, want.entries())


@st.composite
def wide_diamonds(draw, max_dim=12, max_value=10**30):
    """Diamonds of dimension 0-12 with entries up to 10**30: sparse, empty,
    diagonal-only (P^n-like), corner-plus-diagonal (Calabi-Yau-like),
    mirrored (Hodge-symmetric, with entries off the diagonal) or mirrored
    with one entry off the diagonal changed (not Hodge-symmetric).  The
    operations take their half path on Hodge-symmetric inputs only."""
    shape = draw(st.sampled_from(["sparse", "empty", "diagonal", "corners",
                                  "mirrored", "unmirrored"]))
    dim = draw(st.integers(1 if shape == "unmirrored" else 0, max_dim))
    value = st.integers(1, draw(st.sampled_from([1, 9, 10**6, max_value])))
    cell = st.tuples(st.integers(0, dim), st.integers(0, dim))
    entries = {}
    if shape == "sparse":
        entries = draw(st.dictionaries(cell, value, max_size=30))
    elif shape in ("mirrored", "unmirrored"):
        for (p, q), v in draw(st.dictionaries(cell, value, max_size=30)).items():
            entries[(p, q)] = entries[(q, p)] = v
        if shape == "unmirrored":
            p, q = draw(cell.filter(lambda c: c[0] != c[1]))
            entries[(p, q)] = entries.get((p, q), 0) + draw(value)
    elif shape in ("diagonal", "corners"):
        entries = {(p, p): draw(value) for p in range(dim + 1)}
    if shape == "corners":
        corner = draw(value)
        entries[(0, dim)] = entries[(dim, 0)] = corner
    return HodgeDiamond(dim, entries)


@given(wide_diamonds(), wide_diamonds())
@settings(max_examples=150)
def test_kunneth_matches_pairwise(a, b):
    assert_same(kunneth(a, b), kunneth_pairwise(a, b))


@given(wide_diamonds())
@settings(max_examples=150)
def test_squares_match_pairwise(a):
    assert_same(sym2(a), sym2_pairwise(a))
    if a.dim >= 1:
        assert_same(hilbert_square(a), hilbert_square_pairwise(a))


@given(wide_diamonds(), st.integers(1, 15), st.integers(2, 6))
@settings(max_examples=100)
def test_bundles_and_blowups_match_pairwise(a, r, codim):
    # a P^{r-1}-bundle has the diamond of the product with P^{r-1}
    bundle = kunneth(a, varieties.projective_space(r - 1))
    assert_same(bundle, projective_bundle_pairwise(a, r))
    # a blowup adds its exceptional divisor, a twisted projective bundle
    total = kunneth(a, varieties.projective_space(codim))
    exceptional = tate_twist(kunneth(a, varieties.projective_space(codim - 2)), 1)
    assert_same(_sum_tables(total.dim, [total, exceptional]),
                blowup_pairwise(total, a, codim))


@given(wide_diamonds(), wide_diamonds())
@example(varieties.projective_space(1), varieties.point())  # empty correction
@example(HodgeDiamond(1, {(0, 1): 1, (1, 0): 1}),  # odd diagonals square to 0
         varieties.curve(2))
@settings(max_examples=100)
def test_results_store_no_zero_and_no_empty_diagonal(a, b):
    """Rebuilding a result from its entries gives an equal diamond: ``==``
    compares the stored diagonals, so a zero entry or an empty diagonal
    kept by an operation fails here."""
    results = [kunneth(a, b), sym2(a)]
    if a.dim >= 1:
        results.append(hilbert_square(a))
    for r in results:
        assert HodgeDiamond(r.dim, r.entries()) == r


def test_four_corners_of_dimension_1000_match_pairwise():
    n = 1000
    a = HodgeDiamond(n, {(0, 0): 1, (0, n): 2, (n, 0): 2, (n, n): 1})
    assert_same(kunneth(a, a), kunneth_pairwise(a, a))
    assert_same(sym2(a), sym2_pairwise(a))
    assert_same(hilbert_square(a), hilbert_square_pairwise(a))


def test_hodge_is_zero_off_the_table_and_on_missing_diagonals():
    d = varieties.curve(2)  # diagonals -1, 0 and 1
    assert [d.hodge(p, q) for p, q in ((0, 0), (1, 0), (0, 1))] == [1, 2, 2]
    for p, q in ((-1, -1), (2, 2), (-1, 0), (1, 2), (5, -5), (0, 3), (2, 0)):
        assert d.hodge(p, q) == 0
    assert HodgeDiamond(3).hodge(0, 0) == 0


def test_dense_dimension_20_matches_pairwise():
    rng = random.Random(20)
    a = HodgeDiamond(20, {(p, q): rng.randint(1, 10**9)
                          for p in range(21) for q in range(21)})
    b = HodgeDiamond(20, {(p, q): rng.randint(1, 9)
                          for p in range(21) for q in range(21)})
    assert_same(kunneth(a, b), kunneth_pairwise(a, b))
    assert_same(sym2(a), sym2_pairwise(a))
    assert_same(hilbert_square(a), hilbert_square_pairwise(a))


# -- construction and validation -----------------------------------------------


def test_constructor_rejects_bad_entries():
    with pytest.raises(ValueError):
        HodgeDiamond(2, {(0, 0): -1})
    with pytest.raises(ValueError):
        HodgeDiamond(1, {(2, 0): 1})
    with pytest.raises(ValueError):
        HodgeDiamond(-1)


def test_zero_entries_are_dropped():
    d = HodgeDiamond(2, {(0, 0): 1, (1, 1): 0})
    assert d.entries() == {(0, 0): 1}


def test_validate_checks_both_symmetries():
    with pytest.raises(ValueError, match="Hodge-symmetric"):
        HodgeDiamond(1, {(1, 0): 1}).validate()
    asym = {(0, 0): 1, (1, 0): 2, (0, 1): 2}  # Hodge-symmetric, not Serre-dual
    with pytest.raises(ValueError, match="Serre-dual"):
        HodgeDiamond(1, asym).validate()
    curve = varieties.curve(2)
    assert curve.validate() is curve


def test_equality_by_value():
    raw = HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})
    assert raw == varieties.projective_space(1)


def test_json_round_trip():
    d = varieties.builtin("quartic-double-solid")
    assert HodgeDiamond.from_json_dict(d.to_json_dict()) == d
    with pytest.raises(ValueError):
        HodgeDiamond.from_json_dict({"dim": 1})
    with pytest.raises(ValueError):
        HodgeDiamond.from_json_dict({"dim": 1, "entries": [[0, 0]]})


# -- kunneth ---------------------------------------------------------------------


def test_kunneth_point_is_identity():
    x = varieties.builtin("quartic-double-solid")
    assert kunneth(x, varieties.point()) == x


def test_kunneth_p1_squared():
    got = kunneth(varieties.projective_space(1), varieties.projective_space(1))
    assert got == HodgeDiamond(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_kunneth_quartic_double_solid_times_point():
    x = varieties.builtin("quartic-double-solid")
    prod = kunneth(x, varieties.point())
    assert prod.hodge(2, 1) == 10 and prod.hodge(1, 2) == 10


@given(diamonds(), diamonds())
def test_kunneth_commutes(a, b):
    assert kunneth(a, b) == kunneth(b, a)


@given(diamonds(), diamonds())
def test_hh0_submultiplicative(a, b):
    assert hh0(kunneth(a, b)) >= hh0(a) * hh0(b)


def test_hh0_multiplicative_on_diagonal_tables():
    a = varieties.projective_space(2)
    b = varieties.projective_space(3)
    assert hh0(kunneth(a, b)) == hh0(a) * hh0(b)


@st.composite
def diagonal_diamonds(draw, max_dim=3, max_value=5):
    dim = draw(st.integers(0, max_dim))
    entries = {(p, p): draw(st.integers(0, max_value))
               for p in range(dim + 1)}
    return HodgeDiamond(dim, entries)


@given(diagonal_diamonds(), diagonal_diamonds())
def test_hh0_multiplicative_iff_diagonal(a, b):
    assert hh0(kunneth(a, b)) == hh0(a) * hh0(b)


# -- tate twists -------------------------------------------------------------------


def test_tate_twist_examples():
    pt = varieties.point()
    assert tate_twist(pt, 0) == pt
    assert tate_twist(pt, 2) == HodgeDiamond(2, {(2, 2): 1})
    q = tate_twist(varieties.builtin("quartic-double-solid"), 1)
    assert q.dim == 4
    assert (q.hodge(1, 1), q.hodge(2, 2), q.hodge(3, 2)) == (1, 1, 10)
    with pytest.raises(ValueError, match="Serre-dual"):
        q.validate()  # a twist breaks Serre duality by design


# -- sym2 / alt2 -------------------------------------------------------------------


def test_sym2_point_and_p1():
    assert sym2(varieties.point()) == varieties.point()
    assert sym2(varieties.projective_space(1)) == varieties.projective_space(2)


@pytest.mark.parametrize("g", range(5))
def test_sym2_curve_formula(g):
    s = sym2(varieties.curve(g))
    assert s.hodge(0, 0) == 1
    assert s.hodge(1, 0) == g
    assert s.hodge(2, 0) == g * (g - 1) // 2
    assert s.hodge(1, 1) == g * g + 1
    assert s.hodge(2, 1) == g
    assert s.hodge(2, 2) == 1
    assert s == sym2_oracle(varieties.curve(g))


@given(small_diamonds)
@settings(max_examples=150)
def test_sym2_matches_brute_force(d):
    assert sym2(d) == sym2_oracle(d)
    assert alt2_pairwise(d) == alt2_oracle(d)


@given(diamonds())
def test_sym2_plus_alt2_is_kunneth_square(d):
    assert _sum_tables(2 * d.dim, [sym2(d), alt2_pairwise(d)]) == kunneth(d, d)


@given(diamonds())
def test_sym2_preserves_hodge_symmetry(d):
    table = {}
    for (p, q), v in d.entries().items():
        table[(p, q)] = table.get((p, q), 0) + v
        table[(q, p)] = table.get((q, p), 0) + v
    sym = HodgeDiamond(d.dim, table)
    assert sym.is_hodge_symmetric()
    assert sym2(sym).is_hodge_symmetric()


# -- hilbert squares ---------------------------------------------------------------


def test_hilbert_square_p1_is_p2():
    assert hilbert_square(varieties.projective_space(1)) == \
        varieties.projective_space(2)


def test_hilbert_square_rejects_points():
    with pytest.raises(ValueError):
        hilbert_square(varieties.point())


def test_hilbert_square_quartic_double_solid():
    h = hilbert_square(varieties.builtin("quartic-double-solid"))
    assert diagonal(h) == [1, 2, 4, 104, 4, 2, 1]
    assert hh0(h) == 118


def test_hilbert_square_degree2_surface():
    h = hilbert_square(varieties.builtin("degree2-del-pezzo-surface"))
    assert h.hodge(1, 1) == 9
    assert h.hodge(2, 2) == 45  # 36 + 1 from Sym^2 plus 8 from the twist
    assert hh0(h) == 65


def test_hilbert_square_serre_dual_for_geometric_input():
    for name in ("quartic-double-solid", "degree2-del-pezzo-surface",
                 "curve-g3", "p3"):
        h = hilbert_square(varieties.builtin(name))
        assert h.is_hodge_symmetric() and h.is_serre_dual()


def _graded_hh(d):
    """Hochschild homology by HKR: ``HH_i = sum of h^{p,q} over q - p = i``."""
    out = {}
    for (p, q), v in d.entries().items():
        out[q - p] = out.get(q - p, 0) + v
    return out


@pytest.mark.parametrize("n", range(5, 30, 2))
def test_hilbert_square_hh_matches_two_quadrics_ledger(n):
    """HH_* is additive over a semiorthogonal decomposition, so the ledger
    weighted by HH_* of a point, of the genus-g curve C and of Sym^2 C
    (Macdonald: h^{1,1} = g^2 + 1, h^{2,0} = C(g, 2)) gives HH_*(X^[2])."""
    g = (n + 1) // 2
    component_hh = {
        "Dpt": {0: 1},
        "DC": {-1: g, 0: 2, 1: g},
        "DSym2C": {-2: comb(g, 2), -1: 2 * g, 0: g * g + 3, 1: 2 * g,
                   2: comb(g, 2)},
    }
    want = {}
    for name, m in sod.hilb2_two_quadrics_ledger(n).multiplicities.items():
        for i, v in component_hh[name].items():
            want[i] = want.get(i, 0) + m * v
    x = varieties.intersection_of_two_quadrics(n)
    assert _graded_hh(hilbert_square(x)) == want


def test_hilbert_square_is_invariant_part_of_diagonal_blowup():
    # H*(Bl_diag(X x X)) = H*(X x X) + twists; the Z/2-invariant part keeps
    # Sym^2 and the twists, dropping exactly alt2.
    for name in ("degree2-del-pezzo-surface", "quartic-double-solid"):
        x = varieties.builtin(name)
        bl = blowup_pairwise(kunneth(x, x), x, x.dim)
        assert bl == _sum_tables(bl.dim, [hilbert_square(x), alt2_pairwise(x)])


def _symmetric(dim, upper):
    """The geometric diamond whose entries with ``p >= q`` are ``upper``."""
    table = {}
    for (p, q), v in upper.items():
        for key in ((p, q), (q, p), (dim - p, dim - q), (dim - q, dim - p)):
            table[key] = v
    return HodgeDiamond(dim, table).validate()


_K3 = _symmetric(2, {(0, 0): 1, (2, 0): 1, (1, 1): 20})
# a cubic n-fold X and its Fano variety of lines F: 27 lines on the cubic
# surface, the Fano surface of the cubic threefold (Clemens-Griffiths), and
# a variety of K3^[2] type for the cubic fourfold (Beauville-Donagi)
GALKIN_SHINDER_CUBICS = {
    "surface": (_symmetric(2, {(0, 0): 1, (1, 1): 7}),
                HodgeDiamond(0, {(0, 0): 27})),
    "threefold": (_symmetric(3, {(0, 0): 1, (1, 1): 1, (2, 1): 5}),
                  _symmetric(2, {(0, 0): 1, (1, 0): 5, (2, 0): 10, (1, 1): 25})),
    "fourfold": (_symmetric(4, {(0, 0): 1, (1, 1): 1, (2, 2): 21, (3, 1): 1}),
                 hilbert_square(_K3)),
}


@pytest.mark.parametrize("name", sorted(GALKIN_SHINDER_CUBICS))
def test_galkin_shinder_cubics(name):
    """``[X^[2]] = [P^n][X] + L^2 [F(X)]`` for a cubic n-fold X
    (Galkin-Shinder, arXiv:1405.5154): the Hilbert square less the product
    with ``P^n`` is F twisted by ``(2, 2)``."""
    x, f = GALKIN_SHINDER_CUBICS[name]
    rest = hilbert_square(x).entries()
    for key, v in kunneth(varieties.projective_space(x.dim), x).entries().items():
        rest[key] = rest.get(key, 0) - v
    assert {key: v for key, v in rest.items() if v} == tate_twist(f, 2).entries()


@given(diamonds(max_dim=3).filter(lambda d: d.dim >= 1))
def test_euler_identity_for_hilbert_square(d):
    e = euler(d)
    assert euler(hilbert_square(d)) == e * (e + 1) // 2 + (d.dim - 1) * e


# -- projective bundles and blowups -------------------------------------------------


def test_projective_bundle_examples():
    """A P^{r-1}-bundle over a base is ``kunneth(base, P^{r-1})``."""
    def bundle(base, r):
        got = kunneth(base, varieties.projective_space(r - 1))
        assert_same(got, projective_bundle_pairwise(base, r))
        return got

    assert bundle(varieties.point(), 3) == varieties.projective_space(2)
    hirzebruch = bundle(varieties.projective_space(1), 2)
    assert hirzebruch.hodge(1, 1) == 2
    pb = bundle(varieties.curve(2), 2)
    assert pb.entries() == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 2,
                            (2, 1): 2, (1, 2): 2, (2, 2): 1}


def test_blowup_examples():
    one_point = blowup_pairwise(varieties.projective_space(2),
                                varieties.point(), 2)
    assert one_point.hodge(1, 1) == 2
    along_line = blowup_pairwise(varieties.projective_space(3),
                                 varieties.projective_space(1), 2)
    assert along_line.hodge(1, 1) == 2 and along_line.hodge(2, 2) == 2


# -- hh0 / euler / formatting --------------------------------------------------------


def test_hh0_values():
    assert hh0(varieties.point()) == 1
    assert hh0(varieties.builtin("f1-quartic-double-solid")) == 222


def test_euler_quartic_double_solid():
    assert euler(varieties.builtin("quartic-double-solid")) == -16


def test_format_diamond_shape():
    text = hodge.format_diamond(varieties.curve(2))
    rows = text.splitlines()
    assert len(rows) == 3
    assert rows[0].strip() == "1"
    assert rows[1].split() == ["2", "2"]


def test_builtin_registry():
    assert varieties.builtin("p2") == varieties.projective_space(2)
    assert varieties.builtin("curve-g4") == varieties.curve(4)
    with pytest.raises(KeyError):
        varieties.builtin("nope")
    with pytest.raises(ValueError):
        varieties.intersection_of_two_quadrics(4)
