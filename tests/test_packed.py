"""The packed kernel under hodge and motive, against plain loops."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcheck import _packed

# slot widths of 1-8 bytes take memoryview casts at 1, 2, 4 or 8 bytes;
# wider slots take the per-slot loop
WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 13]


def convolve_loop(xs, ys, merge):
    out = {}
    for g, a in xs.items():
        for h, b in ys.items():
            coeffs = out.setdefault(merge(g, h), {})
            for p, c in a.items():
                for q, d in b.items():
                    coeffs[p + q] = coeffs.get(p + q, 0) + c * d
    return out


def square_loop(xs, merge, own):
    """Term by term: an unordered pair of distinct units of coefficient
    gives one product, and a unit paired with itself gives own's terms."""
    out = {}

    def add(key, p, v):
        coeffs = out.setdefault(key, {})
        coeffs[p] = coeffs.get(p, 0) + v

    items = list(xs.items())
    for i, (g, a) in enumerate(items):
        for p, c in a.items():
            for key, c2, c1 in own(g):
                add(key, 2 * p, (c2 * c * c + c1 * c) // 2)
            for q, d in a.items():
                if p < q:
                    add(merge(g, g), p + q, c * d)
        for h, b in items[i + 1:]:
            for p, c in a.items():
                for q, d in b.items():
                    add(merge(g, h), p + q, c * d)
    return out


def total(groups):
    return sum(abs(c) for a in groups.values() for c in a.values())


def nonzero(tables):
    return {key: {p: c for p, c in t.items() if c} for key, t in tables.items()
            if any(t.values())}


def merge_names(g, h):
    return tuple(sorted(g + h))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("step", [1, 2])
def test_pack_round_trip(width, step):
    top = 256**width - 1
    cells = {0: top, 1: 1, 3: top // 3, 7: 0x5A, 8: top}
    slots = _packed.unpack(_packed.pack(cells, width, step), width)
    assert slots == [cells.get(p // step, 0) if p % step == 0 else 0
                     for p in range(step * 8 + 1)]
    assert _packed.unpack(0, width) == []


def top(groups):
    return max(abs(c) for a in groups.values() for c in a.values())


@pytest.mark.parametrize("width", WIDTHS)
def test_convolve_at_every_width(width):
    """Signed terms whose slot bound, each side's total times the other's
    largest term, is ``256**width - 1``; slot 0 of ``()`` reaches ``t^2``."""
    t = 16**width - 1
    xs = {(): {0: t, 3: -1, 4: 1}, ("X",): {1: -1}}
    ys = {(): {0: t, 2: 1}, ("Y",): {0: -1}}
    bound = min(total(xs) * top(ys), total(ys) * top(xs))
    assert bound == 256**width - 1 and _packed.width(bound) == width
    got = _packed.convolve(xs, ys, merge_names)
    assert got == nonzero(convolve_loop(xs, ys, merge_names))


def sym2_rule(g):
    if not g:
        return (((), 1, 1),)
    return ((("Sym2_" + g[0],), 0, 2), (g + g, 1, -1))


def square_bound(xs, ys={}):
    """The square's slot bound: ``(T + 2) * max|c| / 2`` for the total ``T``
    of the coefficients of ``xs``, plus ``T * max(ys)`` for the product."""
    return (total(xs) + 2) * top(xs) // 2 + total(xs) * (top(ys) if ys else 0)


def at_the_top(width):
    """Inputs whose slot bound is as large as ``width`` bytes hold, and the
    input that pinned the bound ``T^2 + T`` of an earlier kernel just inside
    ``width``."""
    b = 256**width
    c = isqrt(2 * b - 1) - 1  # (c + 2) * c / 2 < b
    d = isqrt(2 * b // 3)
    while (3 * d + 2) * d // 2 >= b:
        d -= 1
    t = (isqrt(4 * b - 3) - 1) // 2  # the largest t with t^2 + t < b
    return [
        {(): {0: c}},  # the () rule: output slot 0 is (c^2 + c) / 2
        {("X",): {0: c}},  # the atom's (0, 2) rule gives c, (1, -1) (c^2 - c) / 2
        {(): {0: d}, ("X",): {0: d}, ("Sym2_X",): {0: d}},  # (0, 2) meets () * Sym2_X
        {(): {0: t - 3, 2: 1, 5: 1}, ("X",): {1: 1}},
    ]


def with_correction(width):
    """A square and a correction polynomial that share the top of ``width``:
    about half of the bound from each."""
    b = 256**width
    c = isqrt(b) - 1
    e = (b - 1 - (c + 2) * c // 2) // (2 * c)
    return [({(): {0: c, 1: 1}}, {(): {0: e, 1: e, 3: 1}}),
            ({("X",): {0: c}, (): {2: 1}}, {(): {0: e}})]


@pytest.mark.parametrize("width", WIDTHS)
def test_square_at_every_width(width):
    """At the top of each width every slot comes out exact, and the largest
    output slot would not fit a width one byte narrower."""
    *tops, old = at_the_top(width)
    for xs in tops:
        assert _packed.width(square_bound(xs)) == width
    assert _packed.width(total(old) ** 2 + total(old)) == width
    for xs in tops + [old]:
        want = nonzero(square_loop(xs, merge_names, sym2_rule))
        assert max(max(t.values()) for t in want.values()) >= 256**(width - 1)
        assert _packed.square(xs, merge_names, sym2_rule) == want


def add_tables(a, b):
    out = {key: dict(t) for key, t in a.items()}
    for key, t in b.items():
        for p, c in t.items():
            out.setdefault(key, {})[p] = out.get(key, {}).get(p, 0) + c
    return nonzero(out)


@pytest.mark.parametrize("width", WIDTHS)
def test_square_with_correction_at_every_width(width):
    """The square plus the product with a correction polynomial, in one
    pass, is the square plus the product, at the top of each width."""
    for xs, ys in with_correction(width):
        assert _packed.width(square_bound(xs, ys)) == width
        want = add_tables(square_loop(xs, merge_names, sym2_rule),
                          convolve_loop(xs, ys, merge_names))
        assert max(max(t.values()) for t in want.values()) >= 256**(width - 1)
        assert _packed.square(xs, merge_names, sym2_rule, ys) == want


def test_empty_groups_give_nothing():
    assert _packed.square({}, merge_names, sym2_rule) == {}
    assert _packed.square({(): {}}, merge_names, sym2_rule) == {}
    assert _packed.convolve({}, {(): {0: 1}}, merge_names) == {}


coefficients = st.sampled_from([1, 3, 100, 10**4, 10**8, 10**9, 10**30]).flatmap(
    lambda top: st.integers(-top, top))
groups = st.dictionaries(
    st.sampled_from([(), ("X",), ("Y",), ("X", "Y")]),
    st.dictionaries(st.integers(0, 20), coefficients, max_size=12),
    max_size=4)


@given(groups, groups)
@settings(max_examples=150)
def test_convolve_matches_loop(xs, ys):
    got = _packed.convolve(xs, ys, merge_names)
    assert got == nonzero(convolve_loop(xs, ys, merge_names))


unsigned = groups.map(lambda xs: {g: {p: abs(c) for p, c in a.items()}
                                  for g, a in xs.items() if len(g) < 2})


@given(unsigned)
@settings(max_examples=150)
def test_square_matches_loop(xs):
    got = _packed.square(xs, merge_names, sym2_rule)
    assert got == nonzero(square_loop(xs, merge_names, sym2_rule))


@given(unsigned, st.dictionaries(st.integers(0, 20), coefficients.map(abs),
                                 max_size=12))
@settings(max_examples=150)
def test_square_with_correction_matches_loops(xs, e):
    """One correction polynomial at the unit key ``()``, or an empty one."""
    ys = {(): e}
    want = add_tables(square_loop(xs, merge_names, sym2_rule),
                      convolve_loop(xs, ys, merge_names))
    assert _packed.square(xs, merge_names, sym2_rule, ys) == want
