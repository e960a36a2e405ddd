import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from flipcheck import hodge, varieties
from flipcheck.motive import (_PACK_MIN, ONE, FragmentError, MotiveExpr,
                              _grouped, blowup_class, class_of_pn,
                              flip_difference, hilbert_square_class, sym2_class)

L = MotiveExpr.lefschetz(1)
atom = MotiveExpr.atom

atom_names = st.sampled_from(["C", "F", "X", "Y"])


@st.composite
def motives(draw, max_terms=4):
    expr = MotiveExpr()
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(-5, 5))
        lp = draw(st.integers(0, 4))
        term = MotiveExpr.const(coeff) * MotiveExpr.lefschetz(lp)
        for name in draw(st.lists(atom_names, max_size=2)):
            term = term * atom(name)
        expr = expr + term
    return expr


# -- ring structure --------------------------------------------------------------


def test_pt_is_absorbed():
    assert atom("pt") == ONE
    assert atom("pt") * atom("X") == atom("X")


def test_simple_products():
    assert (ONE + L) * (ONE + L) == ONE + 2 * L + L * L
    assert class_of_pn(1) * class_of_pn(1) == ONE + 2 * L + L * L


def test_reserved_atom_names():
    with pytest.raises(ValueError):
        atom("L")
    with pytest.raises(ValueError):
        atom("Sym2")


@given(motives(), motives(), motives())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(motives())
def test_additive_inverses(a):
    assert a - a == MotiveExpr()
    assert a + MotiveExpr() == a
    assert a * ONE == a


# -- projective spaces and blowups ------------------------------------------------


def test_class_of_pn():
    assert class_of_pn(0) == ONE
    assert class_of_pn(2) == ONE + L + L * L
    p5 = class_of_pn(5)
    assert p5.l_coefficients() == [1] * 6
    with pytest.raises(ValueError):
        class_of_pn(-1)


def test_blowup_class_examples():
    assert blowup_class(class_of_pn(2), ONE, 2) == class_of_pn(2) + L
    x, z = atom("X"), atom("Z")
    assert blowup_class(x, z, 3) == x + z * (L + L * L)
    assert blowup_class(x, MotiveExpr(), 2) == x
    # a divisor: [P^0] - 1 = 0, so blowing up changes nothing
    assert blowup_class(x, z, 1) == x
    with pytest.raises(ValueError):
        blowup_class(x, z, 0)


@given(motives(), motives(), st.integers(1, 5))
def test_blowup_correction_is_divisible_by_l(x, z, c):
    delta = blowup_class(x, z, c) - x
    assert all(lp >= 1 for (lp, _mono) in delta.terms)


# -- flip difference ----------------------------------------------------------------


@given(motives(), st.integers(0, 5), st.integers(0, 5))
def test_flip_difference_antisymmetric(f, r, s):
    assert flip_difference(f, r, s) == -flip_difference(f, s, r)


def test_flop_difference_is_zero():
    for r in range(6):
        assert flip_difference(atom("F"), r, r).is_zero()


def test_flip_difference_cubic_shape():
    # lines on a cubic: center P^2-bundle over F_1, replacement P^1-bundle
    assert flip_difference(atom("F"), 2, 1) == L * L * atom("F")


@pytest.mark.parametrize("r", range(6))
@pytest.mark.parametrize("s", range(6))
def test_flip_identity_derivation(r, s):
    """Write Bl_Z X = Bl_{Z'} X' both ways: Z = P_F(E) is a P^r-bundle of
    codimension s+1, Z' = P_F(E') a P^s-bundle of codimension r+1.  The two
    blowup expansions agree exactly when [X] - [X'] = [F]([P^r] - [P^s])."""
    x, xp, f = atom("X"), atom("Xp"), atom("F")
    left = blowup_class(x, f * class_of_pn(r), s + 1)
    right = blowup_class(xp, f * class_of_pn(s), r + 1)
    assert left - right == (x - xp) - flip_difference(f, r, s)


# -- symmetric squares ----------------------------------------------------------------


def test_sym2_class_examples():
    assert sym2_class(ONE + L) == class_of_pn(2)
    c = atom("C")
    assert sym2_class(c + ONE) == atom("Sym2_C") + c + ONE
    assert sym2_class(L * c) == L * L * atom("Sym2_C")


def test_sym2_class_coefficients_count_copies():
    # two copies of L: Sym^2(L + L) = 3 L^2
    assert sym2_class(2 * L) == 3 * L * L
    # two copies of an atom: Sym2_C twice plus the cross term C*C
    got = sym2_class(2 * atom("C"))
    assert got == 2 * atom("Sym2_C") + atom("C") * atom("C")


def test_sym2_class_fragment_errors():
    with pytest.raises(FragmentError):
        sym2_class(-L)
    with pytest.raises(FragmentError):
        sym2_class(atom("C") * atom("F"))
    with pytest.raises(FragmentError):
        sym2_class(atom("C") * atom("C"))


def _assert_canonical(x):
    """No zero coefficient and only sorted monomial tuples: the public
    constructor would store the same terms, key for key."""
    assert list(x.terms.items()) == \
        list(MotiveExpr(dict(x.terms)).terms.items())
    for lp, mono in x.terms:
        assert type(lp) is int and type(mono) is tuple
        assert list(mono) == sorted(mono)


@given(motives(), motives())
def test_ring_results_are_canonical(a, b):
    for x in (a + b, a - b, -a, a * b, b * a, a * a, a * ONE, 1 * a,
              a + 0, a - a):
        _assert_canonical(x)


def _fragment_term(lp, name):
    return MotiveExpr.lefschetz(lp) * (atom(name) if name else ONE)


def _sym2_fold(items):
    """Reference Sym^2 of sum m_i t_i, folded with public ring operations:
    m_i Sym^2 t_i + C(m_i, 2) t_i^2 per term and m_i m_j t_i t_j per pair."""
    result = MotiveExpr()
    for i, ((lp, name), m) in enumerate(items):
        t = _fragment_term(lp, name)
        sym_t = _fragment_term(2 * lp, f"Sym2_{name}" if name else None)
        result = result + m * sym_t + (m * (m - 1) // 2) * (t * t)
        for (lp2, name2), m2 in items[i + 1:]:
            result = result + (m * m2) * (t * _fragment_term(lp2, name2))
    return result


@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.sampled_from([None, "C", "F", "X"])),
    st.integers(1, 4), max_size=10))
def test_sym2_class_matches_pairwise_fold(coeffs):
    items = list(coeffs.items())
    x = MotiveExpr()
    for (lp, name), m in items:
        x = x + m * _fragment_term(lp, name)
    got = sym2_class(x)
    assert got == _sym2_fold(items)
    _assert_canonical(got)


# -- term-by-term references for the grouped kernel ----------------------------
#
# The loops that grouped, packed products and squares replaced, kept as
# references.


def mul_pairwise(a, b):
    terms = {}
    for (l1, m1), c1 in a.terms.items():
        for (l2, m2), c2 in b.terms.items():
            key = (l1 + l2, tuple(sorted(m1 + m2)))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {key: c for key, c in terms.items() if c}


def sym2_class_pairwise(x):
    items = sorted(x.terms.items())
    for (lp, mono), c in items:
        if c < 0:
            raise FragmentError(
                f"negative coefficient {c} at L^{lp}: not an effective class")
        if len(mono) > 1:
            raise FragmentError(f"monomial {'*'.join(mono)} is not a single atom")
    result = {}
    for i, ((lp, mono), m) in enumerate(items):
        if mono:
            sym_key = (2 * lp, (f"Sym2_{mono[0]}",))
            square_key = (2 * lp, mono + mono)
        else:
            sym_key = square_key = (2 * lp, ())
        result[sym_key] = result.get(sym_key, 0) + m
        result[square_key] = result.get(square_key, 0) + m * (m - 1) // 2
        for (lp2, mono2), m2 in items[i + 1:]:
            key = (lp + lp2, tuple(sorted(mono + mono2)))
            result[key] = result.get(key, 0) + m * m2
    return {key: c for key, c in result.items() if c}


@st.composite
def grouped_motives(draw, signed=True, max_atoms=2):
    """Classes with up to 4 monomials of up to ``max_atoms`` atoms, each over
    1 to 24 powers of L, so that groups fall on both sides of the packing
    threshold (powers up to 30 stay below the square of a packing group's
    term count); coefficients up to 1 to 10**30 put the kernel's slots at
    widths from 1 to over 8 bytes."""
    top = draw(st.sampled_from([1, 3, 100, 10**4, 10**8, 10**9, 10**30]))
    coeff = st.integers(-top if signed else 1, top)
    monos = draw(st.lists(st.lists(atom_names, max_size=max_atoms).map(
        lambda names: tuple(sorted(names))), max_size=4, unique=True))
    terms = {}
    for mono in monos:
        size = draw(st.sampled_from([1, 2, _PACK_MIN - 1, _PACK_MIN, 16, 24]))
        for lp in draw(st.sets(st.integers(0, 30), min_size=size, max_size=size)):
            terms[(lp, mono)] = draw(coeff)
    return MotiveExpr(terms)


@given(grouped_motives(), grouped_motives())
@settings(max_examples=150)
def test_mul_matches_pairwise(a, b):
    for x, y in ((a, b), (b, a), (a, a), (a, MotiveExpr())):
        got = x * y
        assert got.terms == mul_pairwise(x, y)
        _assert_canonical(got)


@given(st.one_of(grouped_motives(signed=False, max_atoms=1), grouped_motives()))
@settings(max_examples=150)
def test_sym2_class_matches_pairwise(x):
    try:
        want = sym2_class_pairwise(x)
    except FragmentError as exc:
        with pytest.raises(FragmentError) as info:
            sym2_class(x)
        assert str(info.value) == str(exc)
        return
    got = sym2_class(x)
    assert got.terms == want
    _assert_canonical(got)


_HIGH = 3_000_000_000
# _PACK_MIN terms over far more powers of L than their square: packed, each
# would take one slot per power up to L^_HIGH
SPARSE_GROUPS = {
    "sparse": {(lp, ()): 1 for lp in [*range(_PACK_MIN - 1), _HIGH]},
    "shifted": {(_HIGH + lp, ()): 1 for lp in range(_PACK_MIN)},
}


@pytest.mark.parametrize("name", sorted(SPARSE_GROUPS))
def test_sparse_high_degree_groups_stay_term_by_term(name):
    x = MotiveExpr(SPARSE_GROUPS[name])
    assert _grouped(x.terms)[1] == {}
    assert (x * x).terms == mul_pairwise(x, x)
    assert sym2_class(x).terms == sym2_class_pairwise(x)


@st.composite
def wide_motive_pairs(draw, signed=True, shapes=(0, 1, 1, 1, 1, 1, 1, 1, 2)):
    """Two classes of 20 to 300 terms each over L^0 to L^4, so that no
    monomial group packs and every pair multiplies term by term.  Each
    term's monomial has a number of atoms drawn from ``shapes`` (mostly one,
    some none, some two), its names drawn from one pool that both classes
    share, so that products meet ``(a, a)`` and both orders of two names.
    Signed coefficients are small, so that some product coefficients
    cancel to zero."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = draw(st.lists(st.integers(20, 300), min_size=2, max_size=2))
    names = [f"a{i}" for i in range(draw(st.integers(max(sizes) // 4,
                                                      2 * max(sizes))))]
    coeffs = [-3, -2, -1, 1, 2, 3] if signed else [1, 2, 3]
    classes = []
    for size in sizes:
        terms = {}
        while len(terms) < size:
            mono = tuple(sorted(rng.choices(names, k=rng.choice(shapes))))
            terms[(rng.randrange(5), mono)] = rng.choice(coeffs)
        classes.append(MotiveExpr(terms))
    return classes


# no shrinking: each example multiplies up to 300 x 300 terms, and shrinking
# a planted merge bug ran for minutes
_WIDE = settings(max_examples=20, deadline=None,
                 phases=[Phase.explicit, Phase.reuse, Phase.generate])


@given(wide_motive_pairs())
@_WIDE
def test_wide_mul_matches_pairwise(pair):
    x, y = pair
    for a, b in ((x, y), (y, x), (x, x)):
        got = a * b
        assert got.terms == mul_pairwise(a, b)
        _assert_canonical(got)


@given(wide_motive_pairs(signed=False, shapes=(0, 1, 1, 1, 1, 1, 1, 1)))
@_WIDE
def test_wide_sym2_class_matches_pairwise(pair):
    for x in pair:
        got = sym2_class(x)
        assert got.terms == sym2_class_pairwise(x)
        _assert_canonical(got)


# -- hilbert square classes -------------------------------------------------------------


def test_hilbert_square_class_p1():
    assert hilbert_square_class(class_of_pn(1), 1) == class_of_pn(2)


def test_hilbert_square_class_p2():
    got = hilbert_square_class(class_of_pn(2), 2)
    assert got.l_coefficients() == [1, 2, 3, 2, 1]


@pytest.mark.parametrize("n", [1, 2, 9, 4000])
def test_hilbert_square_class_of_pn_matches_hodge(n):
    # P^4000 squares as one packed group; term by term it took seconds
    got = hilbert_square_class(class_of_pn(n), n)
    want = hodge.hilbert_square(varieties.projective_space(n))
    assert got.l_coefficients() == hodge.diagonal(want)
    assert all(not mono for _, mono in got.terms)


def test_hilbert_square_class_atomic_threefold():
    x = atom("X")
    assert hilbert_square_class(x, 3) == \
        atom("Sym2_X") + (L + L * L) * x
    with pytest.raises(ValueError):
        hilbert_square_class(x, 0)


# -- specialization ------------------------------------------------------------------


@pytest.mark.parametrize("e,n", [(-16, 3), (0, 2), (5, 4), (-6, 3), (7, 1)])
def test_specialization_gives_euler_formula(e, n):
    cls = hilbert_square_class(atom("X"), n)
    value = cls.specialize({"X": e, "Sym2_X": e * (e + 1) // 2})
    assert value == e * (e + 1) // 2 + (n - 1) * e


def test_specialization_cross_check_with_hodge():
    qds = varieties.builtin("quartic-double-solid")
    e = hodge.euler(qds)
    cls = hilbert_square_class(atom("X"), qds.dim)
    via_motive = cls.specialize({"X": e, "Sym2_X": e * (e + 1) // 2})
    assert via_motive == hodge.euler(hodge.hilbert_square(qds)) == 88


def test_specialize_requires_all_atoms():
    with pytest.raises(KeyError):
        (atom("X") + L).specialize({})
