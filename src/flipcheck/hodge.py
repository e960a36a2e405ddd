"""Exact arithmetic with Hodge diamonds.

A Hodge diamond records the Hodge numbers ``h^{p,q}`` of a smooth projective
variety of complex dimension ``n``, for ``0 <= p, q <= n``.  Geometric
diamonds satisfy two symmetries:

* Hodge symmetry:  ``h^{p,q} = h^{q,p}``
* Serre duality:   ``h^{p,q} = h^{n-p,n-q}``

The operations here are the numerical shadows of standard constructions:
products (Kunneth), graded symmetric squares with the Koszul sign rule, and
the Hilbert square by the formula of the Grothendieck ring (``motive``):

    h(X^[2]) = Sym^2 h(X)  +  ([P^{n-1}] - [pt]) h(X),

one symmetric square and one Kunneth product with the raw table of ones at
``(i, i)``, ``1 <= i <= n-1``.  The product is the exceptional divisor of
the blowup of ``X x X`` along the diagonal, a ``P^{n-1}``-bundle over ``X``,
less the diagonal it replaces.

Everything is exact integer arithmetic on sparse tables; entries are
dimensions only (no lattice or torsion information is modelled).  Values are
immutable after construction and all operations are pure functions.

Products and squares run on packed diagonals (``_packed``): the entries
``h^{p,p+s}`` of one diagonal ``s = q - p`` sit in fixed-width slots ``p`` of
one Python integer, and one big-integer multiply per pair of diagonals does
the whole Kunneth product.  ``Sym^2`` follows Macdonald's
``(a^2 + psi^2 a) / 2``.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

from . import _packed

Bidegree = tuple[int, int]

# largest dimension of an input diamond (JSON or builtin): the packed
# operations size their buffers by the dimension, not by the entries
MAX_DIM = 100_000


class HodgeDiamond:
    """A bigraded table of nonnegative integers supported on ``[0, dim]^2``.

    Any nonnegative table is a diamond; :meth:`validate` checks the two
    symmetries of a geometric one.  Intermediate tables such as
    ``[P^{n-1}] - [pt]`` need not satisfy them.
    """

    __slots__ = ("dim", "_entries")

    def __init__(self, dim: int, entries: Mapping[Bidegree, int] = {}):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        for (p, q), v in entries.items():
            _check_entry(p, q, v)
            if v and not (0 <= p <= dim and 0 <= q <= dim):
                raise ValueError(f"entry h^({p},{q}) outside [0,{dim}]^2")
        self.dim = dim
        self._entries = {key: v for key, v in entries.items() if v}

    @classmethod
    def _trusted(cls, dim: int, table: dict[Bidegree, int]) -> "HodgeDiamond":
        """Wrap a table already known to be positive and inside ``[0, dim]^2``."""
        d = object.__new__(cls)
        d.dim, d._entries = dim, table
        return d

    def hodge(self, p: int, q: int) -> int:
        """Return ``h^{p,q}``; absent entries are zero."""
        return self._entries.get((p, q), 0)

    def entries(self) -> dict[Bidegree, int]:
        """A copy of the nonzero entries."""
        return dict(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __repr__(self) -> str:
        cells = ", ".join(
            f"({p},{q}): {v}" for (p, q), v in sorted(self._entries.items())
        )
        return f"HodgeDiamond(dim={self.dim}, {{{cells}}})"

    # -- symmetry checks ---------------------------------------------------

    def is_hodge_symmetric(self) -> bool:
        return all(v == self.hodge(q, p) for (p, q), v in self._entries.items())

    def is_serre_dual(self) -> bool:
        n = self.dim
        return all(
            v == self.hodge(n - p, n - q) for (p, q), v in self._entries.items()
        )

    def validate(self) -> "HodgeDiamond":
        """Check both symmetries and return the diamond itself."""
        if not self.is_hodge_symmetric():
            raise ValueError("table is not Hodge-symmetric")
        if not self.is_serre_dual():
            raise ValueError("table is not Serre-dual")
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[p, q, v] for (p, q), v in sorted(self._entries.items())],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "HodgeDiamond":
        if not (isinstance(data, Mapping) and "dim" in data
                and "entries" in data):
            raise ValueError("diamond JSON must be an object with 'dim' and "
                             "'entries'")
        dim, raw = data["dim"], data["entries"]
        # bool is a subclass of int, but JSON true/false is not a number
        if type(dim) is not int:
            raise ValueError("'dim' must be an integer")
        if dim > MAX_DIM:
            raise ValueError(f"'dim' must be at most {MAX_DIM}")
        if not isinstance(raw, list):
            raise ValueError("'entries' must be a list of [p, q, value] rows")
        # repeated rows add up; each row is refused on its own when negative
        entries: dict[Bidegree, int] = {}
        for i, row in enumerate(raw):
            if not (isinstance(row, (list, tuple)) and len(row) == 3
                    and all(type(x) is int for x in row)):
                raise ValueError(f"bad entry row {i}; want [p, q, value]")
            p, q, v = row
            _check_entry(p, q, v)
            entries[(p, q)] = entries.get((p, q), 0) + v
        return cls(dim, entries)


def _check_entry(p: int, q: int, v: int) -> None:
    if v < 0:
        raise ValueError(f"negative entry h^({p},{q}) = {v}")


# -- packed diagonals ----------------------------------------------------------


def _diagonals(a: HodgeDiamond) -> dict[int, dict[int, int]]:
    """Entries grouped by diagonal: ``{q - p: {p: h^{p,q}}}``."""
    cells: dict[int, dict[int, int]] = {}
    for (p, q), v in a._entries.items():
        cells.setdefault(q - p, {})[p] = v
    return cells


def _unpacked(dim: int, diagonals: Mapping[int, list[int]]) -> HodgeDiamond:
    """The diamond whose diagonal ``s`` holds the entries ``diagonals[s]``."""
    table: dict[Bidegree, int] = {}
    for s, slots in diagonals.items():
        for p, v in enumerate(slots):
            if v:
                table[(p, p + s)] = v
    return HodgeDiamond._trusted(dim, table)


# -- operations --------------------------------------------------------------


def kunneth(a: HodgeDiamond, b: HodgeDiamond) -> HodgeDiamond:
    """Hodge diamond of a product: bigraded convolution of the two tables."""
    out = _packed.convolve(_diagonals(a), _diagonals(b), operator.add)
    return _unpacked(a.dim + b.dim, out)


def sym2(a: HodgeDiamond) -> HodgeDiamond:
    """Graded symmetric square with the Koszul sign rule.

    This is the table of Z/2-coinvariants of ``H*(X) (x) H*(X)`` under the
    swap with sign ``(-1)^{|x||y|}``.  Two distinct bidegrees contribute the
    product of their entries; a bidegree paired with itself contributes
    ``m(m+1)/2`` in even total degree and ``m(m-1)/2`` in odd total degree
    (Sym^2 of the even part, even (x) odd, and Lambda^2 of the odd part).

    On packed diagonals this is ``(a^2 + psi^2 a) / 2``: ``psi^2`` doubles
    bidegrees with the Koszul sign ``(-1)^{p+q}``, and ``p + q`` has the
    parity of the diagonal ``s = q - p``; within a diagonal every slot of
    ``x^2 + (-1)^s * psi`` is even and nonnegative.
    """
    out = _packed.square(_diagonals(a), operator.add,
                         lambda s: ((2 * s, 1, -1 if s % 2 else 1),))
    return _unpacked(2 * a.dim, out)


def hilbert_square(a: HodgeDiamond) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of two points:
    ``Sym^2 X + ([P^{n-1}] - [pt]) X`` for ``n = dim >= 1``, the formula of
    ``motive.hilbert_square_class``.  For a curve the correction is empty
    and ``(P^1)^[2] = P^2`` comes out of the symmetric square alone.
    """
    n = a.dim
    if n < 1:
        raise ValueError("Hilbert square of a 0-dimensional variety is not modelled")
    square = sym2(a)
    exceptional = HodgeDiamond._trusted(n - 1, {(i, i): 1 for i in range(1, n)})
    table = square._entries  # a fresh table, summed into in place
    for key, v in kunneth(a, exceptional)._entries.items():
        table[key] = table.get(key, 0) + v
    return square


def hh0(a: HodgeDiamond) -> int:
    """Sum of the diagonal entries ``h^{p,p}``: the dimension of degree-zero
    Hochschild homology via Hochschild--Kostant--Rosenberg.
    """
    return sum(v for (p, q), v in a._entries.items() if p == q)


def diagonal(a: HodgeDiamond) -> list[int]:
    """The column ``[h^{0,0}, h^{1,1}, ..., h^{n,n}]``."""
    return [a.hodge(p, p) for p in range(a.dim + 1)]


def euler(a: HodgeDiamond) -> int:
    """Topological Euler characteristic: alternating sum over ``p + q``."""
    return sum(v if (p + q) % 2 == 0 else -v
               for (p, q), v in a._entries.items())


def format_diamond(a: HodgeDiamond) -> str:
    """Render as the classical centered diamond, ``h^{n,n}`` on top."""
    n = a.dim
    rows = []
    for total in range(2 * n, -1, -1):
        lo = max(0, total - n)
        hi = min(n, total)
        rows.append([a.hodge(p, total - p) for p in range(hi, lo - 1, -1)])
    width = max((len(str(v)) for row in rows for v in row), default=1) + 2
    lines = []
    full = (2 * n + 1) * width
    for row in rows:
        text = "".join(str(v).center(width) for v in row)
        lines.append(text.center(full).rstrip())
    return "\n".join(lines)
