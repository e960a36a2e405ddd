"""Point counts of Hilbert squares over finite fields, by enumeration.

A point of ``X^[2]`` over ``F_q`` is a length-two subscheme defined over
``F_q``: an unordered pair of distinct rational points, a pair of
conjugate points over ``F_{q^2}``, or a rational point with a tangent
direction.  The counts here enumerate those points from coordinates, with
``F_{q^2}`` built as ``F_q[t] / (t^2 - c1 t - c0)``, and share no code with
``hodge`` or ``motive``; both layers must reproduce them, the class of
``X^[2]`` at ``L = q`` and the diamond as ``sum_p h^{p,p} q^p``.
"""

import random
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from flipcheck import fano, hodge, varieties
from flipcheck.motive import (MotiveExpr, class_of_pn, flip_difference,
                              hilbert_square_class)

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


# -- lines on cubics: Galkin-Shinder at L = q -------------------------------------
#
# For a smooth cubic X of dimension n, with F its variety of lines,
# [X^[2]] = [P^n][X] + L^2 [F] (Galkin-Shinder).  Here a cubic form f over F_q
# in n + 2 variables is drawn at random, and #X(F_q), #X(F_{q^2}), the
# tangent directions at each rational point and the lines of P^{n+1}(F_q)
# on X are enumerated; motive must reproduce both sides at L = q.


class Arithmetic:
    """``F_q`` inside ``F_{q^2}``, elements as indices into ``Field(q, 2)``
    with addition and multiplication tables."""

    def __init__(self, q):
        big = Field(q, 2)
        index = {x: i for i, x in enumerate(big.elements)}
        self.q, self.size = q, len(big.elements)
        self.add = [[index[((a + c) % q, (b + d) % q)] for (c, d) in big.elements]
                    for (a, b) in big.elements]
        self.mul = [[index[big.mul(x, y)] for y in big.elements]
                    for x in big.elements]
        self.small = [index[(a, 0)] for a in range(q)]  # F_q, 0 and 1 first
        self.zero, self.one = self.small[0], self.small[1]

    def points(self, n, rational):
        """``P^n`` over ``F_q`` or ``F_{q^2}``, first nonzero coordinate 1."""
        field = self.small if rational else range(self.size)
        for lead in range(n + 1):
            for tail in product(field, repeat=n - lead):
                yield (self.zero,) * lead + (self.one,) + tail


def random_cubic(rng, ar, variables):
    """Monomials ``x_i x_j x_k`` (``i <= j <= k``) with coefficients in F_q."""
    return [(ar.small[rng.randrange(ar.q)], m)
            for m in combinations_with_replacement(range(variables), 3)]


def value_and_gradient(ar, cubic, v):
    add, mul = ar.add, ar.mul
    f, grad = ar.zero, [ar.zero] * len(v)
    for c, (i, j, k) in cubic:
        f = add[f][mul[c][mul[mul[v[i]][v[j]]][v[k]]]]
        for m, a, b in ((i, j, k), (j, i, k), (k, i, j)):
            grad[m] = add[grad[m]][mul[c][mul[v[a]][v[b]]]]
    return f, grad


def line_points(ar, a, b):
    """The ``q^2 + 1`` points of the line through ``a`` and ``b`` over
    ``F_{q^2}``: more than the 3 roots a nonzero binary cubic can have."""
    yield b
    for t in range(ar.size):
        yield tuple(ar.add[x][ar.mul[t][y]] for x, y in zip(a, b))


def lines(ar, n):
    """The lines of ``P^n(F_q)``, each as a reduced row-echelon pair."""
    for c1 in range(n + 1):
        for c2 in range(c1 + 1, n + 1):
            free1 = [j for j in range(c1 + 1, n + 1) if j != c2]
            for v1 in product(ar.small, repeat=len(free1)):
                for v2 in product(ar.small, repeat=n - c2):
                    a = [ar.zero] * (n + 1)
                    b = [ar.zero] * (n + 1)
                    a[c1], b[c2] = ar.one, ar.one
                    for j, x in zip(free1, v1):
                        a[j] = x
                    for j, x in zip(range(c2 + 1, n + 1), v2):
                        b[j] = x
                    yield tuple(a), tuple(b)


def cubic_counts(ar, cubic, n):
    """``(N1, N2, directions, lines)`` for the cubic ``X`` in ``P^{n+1}``, or
    None if ``X`` has a singular point over ``F_{q^2}``."""
    n2, rational = 0, []
    small = set(ar.small)
    for v in ar.points(n + 1, rational=False):
        f, grad = value_and_gradient(ar, cubic, v)
        if f != ar.zero:
            continue
        if all(g == ar.zero for g in grad):
            return None
        n2 += 1
        if small.issuperset(v):
            rational.append(grad)
    # tangent directions at x: lines through x in its tangent hyperplane,
    # which holds x (Euler) and #P^n(F_q) points when x is smooth
    plane = list(ar.points(n + 1, rational=True))
    directions = 0
    for grad in rational:
        on = 0
        for v in plane:
            dot = ar.zero
            for g, x in zip(grad, v):
                dot = ar.add[dot][ar.mul[g][x]]
            on += dot == ar.zero
        directions += (on - 1) // ar.q
    on_x = sum(all(value_and_gradient(ar, cubic, p)[0] == ar.zero
                   for p in line_points(ar, a, b)) for a, b in lines(ar, n + 1))
    return len(rational), n2, directions, on_x


def points_of_pn(q, n):
    return sum(q**i for i in range(n + 1))


def smooth_cubics(q, n, count, seed):
    """``count`` random cubics with no singular point over ``F_{q^2}``.
    That is weaker than smoothness, which asks for no singular point over
    the algebraic closure, so the filter can keep a singular cubic; the
    counts below assume smoothness, and a kept singular cubic would show
    as a failure, not as a pass."""
    rng, ar, found = random.Random(seed), Arithmetic(q), []
    for _ in range(50 * count):
        counts = cubic_counts(ar, random_cubic(rng, ar, n + 2), n)
        if counts is not None:
            found.append(counts)
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} cubics pass the filter")


def test_the_filter_refuses_a_singular_cubic():
    ar = Arithmetic(2)
    one = ar.one
    assert cubic_counts(ar, [(one, (0, 1, 2))], 2) is None  # three planes
    assert cubic_counts(ar, [(one, (0, 0, 0)), (one, (1, 1, 1))],
                        1) is None  # a cone with vertex (0:0:1)


@pytest.mark.parametrize("q, n, count", [
    (2, 2, 12), (3, 2, 12), (2, 3, 12),
    pytest.param(2, 4, 6, marks=pytest.mark.slow)],
    ids=["q2-surfaces", "q3-surfaces", "q2-threefolds", "q2-fourfolds"])
def test_lines_on_cubics_give_the_hilbert_square(q, n, count):
    """``#X^[2](F_q)``, enumerated, against ``motive.hilbert_square_class``
    at ``L = q``; and the Galkin-Shinder difference
    ``#X^[2] - #P^n(F_q) #X(F_q) = q^2 #F(F_q)``, which fixes the
    coefficient of ``[X]`` at ``n + 1`` Lefschetz copies without ``hodge``
    or ``fano.sod_counts``, against ``motive.flip_difference`` with the
    shape ``fano.flip_shapes`` gives the cubic's lines."""
    (shape,) = fano.flip_shapes("cubic", n, 0)
    x, f = MotiveExpr.atom("X"), MotiveExpr.atom("F")
    for n1, n2, directions, on_x in smooth_cubics(q, n, count, seed=q * 10 + n):
        assert directions == n1 * points_of_pn(q, n - 1)  # smooth at F_q points
        hilb2 = comb(n1, 2) + (n2 - n1) // 2 + directions
        cls = hilbert_square_class(x, n)
        assert cls.specialize({"X": n1, "Sym2_X": (n1 * n1 + n2) // 2}, q) == hilb2
        difference = hilb2 - points_of_pn(q, n) * n1
        assert difference == q * q * on_x
        assert flip_difference(f, shape.r, shape.s).specialize({"F": on_x}, q) \
            == difference
