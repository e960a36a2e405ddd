"""Point counts of Hilbert squares over finite fields, by enumeration.

A point of ``X^[2]`` over ``F_q`` is a length-two subscheme defined over
``F_q``: an unordered pair of distinct rational points, a pair of
conjugate points over ``F_{q^2}``, or a rational point with a tangent
direction.  The counts here enumerate those points from coordinates, with
``F_{q^2}`` built as ``F_q[t] / (t^2 - c1 t - c0)``, and share no code with
``hodge`` or ``motive``; both layers must reproduce them, the class of
``X^[2]`` at ``L = q`` and the diamond as ``sum_p h^{p,p} q^p``.
"""

from itertools import product
from math import comb

import pytest

from flipcheck import hodge, varieties
from flipcheck.motive import class_of_pn, hilbert_square_class

# t^2 = c0 + c1 t is irreducible over F_q: x^2 + x + 1 over F_2, x^2 + 1 over F_3
QUADRATIC = {2: (1, 1), 3: (2, 0)}


class Field:
    """``F_q`` (degree 1) or ``F_{q^2}`` (degree 2); elements are tuples of
    coordinates in the basis ``1, t``."""

    def __init__(self, q, degree):
        self.q, self.degree = q, degree
        self.elements = list(product(range(q), repeat=degree))
        self.zero = (0,) * degree
        self.one = (1,) + (0,) * (degree - 1)
        self.inverse = {x: next(y for y in self.elements if self.mul(x, y) == self.one)
                        for x in self.elements if x != self.zero}

    def mul(self, x, y):
        q = self.q
        if self.degree == 1:
            return ((x[0] * y[0]) % q,)
        c0, c1 = QUADRATIC[q]
        a, b = x
        c, d = y
        return ((a * c + b * d * c0) % q, (a * d + b * c + b * d * c1) % q)

    def frobenius(self, x):
        out = self.one
        for _ in range(self.q):
            out = self.mul(out, x)
        return out


def projective_points(field, n):
    """The points of ``P^n`` over ``field``: nonzero vectors up to scaling,
    each scaled so that its first nonzero coordinate is 1."""
    points = set()
    for v in product(field.elements, repeat=n + 1):
        lead = next((x for x in v if x != field.zero), None)
        if lead is not None:
            inv = field.inverse[lead]
            points.add(tuple(field.mul(inv, x) for x in v))
    return points


def product_points(field, dims):
    """Points of ``P^a x P^b x ...`` as tuples of projective points."""
    return set(product(*(projective_points(field, n) for n in dims)))


def hilbert_square_count(q, dims):
    """``#X^[2](F_q)`` for ``X = P^{dims[0]} x P^{dims[1]} x ...``."""
    small, big = Field(q, 1), Field(q, 2)
    rational = len(product_points(small, dims))
    # a point over F_{q^2} is rational iff Frobenius fixes it
    moved = sum(1 for point in product_points(big, dims)
                if any(big.frobenius(x) != x for factor in point for x in factor))
    assert moved % 2 == 0
    # a tangent direction at a point is a point of P(T_x X), T_x of dim X
    directions = len(projective_points(small, sum(dims) - 1))
    return comb(rational, 2) + moved // 2 + rational * directions


def test_enumeration_small_cases():
    # (P^1)^[2] = P^2; over F_2 it has 7 points
    assert hilbert_square_count(2, (1,)) == 7
    assert len(projective_points(Field(3, 2), 1)) == 10


CASES = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3)]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("dims", CASES, ids=lambda d: "x".join(f"P{n}" for n in d))
def test_hilbert_square_point_count(dims, q):
    want = hilbert_square_count(q, dims)
    n = sum(dims)
    cls = class_of_pn(dims[0])
    diamond = varieties.projective_space(dims[0])
    for m in dims[1:]:
        cls = cls * class_of_pn(m)
        diamond = hodge.kunneth(diamond, varieties.projective_space(m))
    assert hilbert_square_class(cls, n).specialize({}, q) == want
    square = hodge.hilbert_square(diamond)
    assert all(p == p2 for p, p2 in square.entries())  # pure Tate
    assert sum(square.hodge(p, p) * q**p for p in range(2 * n + 1)) == want
