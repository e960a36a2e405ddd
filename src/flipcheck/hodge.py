"""Exact arithmetic with Hodge diamonds.

A Hodge diamond records the Hodge numbers ``h^{p,q}`` of a smooth projective
variety of complex dimension ``n``, for ``0 <= p, q <= n``.  Geometric
diamonds satisfy two symmetries:

* Hodge symmetry:  ``h^{p,q} = h^{q,p}``
* Serre duality:   ``h^{p,q} = h^{n-p,n-q}``

Hodge symmetry holds for every table this module models: the Hodge numbers
of any class in the Grothendieck ring of varieties satisfy
``h^{p,q;k} = h^{q,p;k}`` (Deligne, *Theorie de Hodge II, III*), so every
E-polynomial is symmetric in ``u`` and ``v``.  A diamond is Hodge-symmetric
by construction, and the constructor refuses any other table.  Serre
duality fails for classes that are not proper, such as ``[P^{n-1}] -
[pt]``; :meth:`HodgeDiamond.validate` checks it.

The operations here are the numerical shadows of standard constructions:
products (Kunneth), graded symmetric squares with the Koszul sign rule, and
the Hilbert square by the formula of the Grothendieck ring (``motive``):

    h(X^[2]) = Sym^2 h(X)  +  ([P^{n-1}] - [pt]) h(X),

the symmetric square plus the product with the raw table of ones at
``(i, i)``, ``1 <= i <= n-1``.  The product is the exceptional divisor of
the blowup of ``X x X`` along the diagonal, a ``P^{n-1}``-bundle over ``X``,
less the diagonal it replaces.

Everything is exact integer arithmetic on sparse tables; entries are
dimensions only (no lattice or torsion information is modelled).  Values are
immutable after construction and all operations are pure functions.

A diamond is stored by diagonal, ``{s: {p: h^{p,p+s}}}`` for ``s = q - p
>= 0``, with no zero entry and no empty diagonal: the layout of the packed
kernel (``_packed``), which packs a diagonal into one integer and multiplies
two in one step.  Diagonal ``-s`` is diagonal ``s`` moved up ``s`` slots,
and every reader reads it so.  The operations pack the stored diagonals
only, hand the kernel diagonal ``-s`` as packed diagonal ``s`` shifted up
``s`` slots, and compute only the output diagonals ``s >= 0``, which are
the result.  The Hilbert square is one ``_packed.square`` pass (diagonal
``s`` gives ``(x_s^2 +- psi_s)/2`` at ``2s``, ``x_s * e`` at ``s`` for
``e = t + ... + t^{n-1}``, ``x_s * x_t`` at ``s + t``) and one unpack.
"""

from collections.abc import Mapping

from . import _packed

Bidegree = tuple[int, int]
Diagonals = dict[int, dict[int, int]]  # {q - p: {p: h^{p,q}}}

# largest dimension of an input diamond (JSON or builtin): the packed
# operations size their buffers by the dimension, not by the entries, so a
# four-corner diamond costs a slot per p of each corner diagonal
MAX_DIM = 100_000


class HodgeDiamond:
    """A Hodge-symmetric table of nonnegative integers supported on
    ``[0, dim]^2``, stored as its diagonals ``s >= 0``.

    The constructor refuses a table that is not Hodge-symmetric;
    :meth:`validate` checks Serre duality, which intermediate tables such
    as ``[P^{n-1}] - [pt]`` need not satisfy.
    """

    __slots__ = ("dim", "_diagonals")

    def __init__(self, dim: int, entries: Mapping[Bidegree, int] = {}):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        diagonals: Diagonals = {}
        for (p, q), v in entries.items():
            _check_entry(p, q, v)
            if v and not (0 <= p <= dim and 0 <= q <= dim):
                raise ValueError(f"entry h^({p},{q}) outside [0,{dim}]^2")
            if v:
                diagonals.setdefault(q - p, {})[p] = v
        self.dim = dim
        self._diagonals = _halve(diagonals)

    @classmethod
    def _trusted(cls, dim: int, diagonals: Diagonals) -> "HodgeDiamond":
        """Wrap the positive, nonempty diagonals ``s >= 0`` of a
        Hodge-symmetric table inside ``[0, dim]^2``."""
        d = object.__new__(cls)
        d.dim = dim
        d._diagonals = diagonals
        return d

    def hodge(self, p: int, q: int) -> int:
        """Return ``h^{p,q}``; absent entries are zero."""
        if q < p:
            p, q = q, p
        cells = self._diagonals.get(q - p)
        return cells.get(p, 0) if cells else 0

    def entries(self) -> dict[Bidegree, int]:
        """The nonzero entries, keyed by ``(p, q)``."""
        out = {(p, p + s): v for s, cells in self._diagonals.items()
               for p, v in cells.items()}
        out.update({(p + s, p): v for s, cells in self._diagonals.items()
                    if s for p, v in cells.items()})  # diagonal -s
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return (self.dim, self._diagonals) == (other.dim, other._diagonals)

    def __repr__(self) -> str:
        cells = ", ".join(f"({p},{q}): {v}"
                          for (p, q), v in sorted(self.entries().items()))
        return f"HodgeDiamond(dim={self.dim}, {{{cells}}})"

    # -- symmetry checks ---------------------------------------------------

    def validate(self) -> "HodgeDiamond":
        """Check Serre duality and return the diamond itself."""
        n = self.dim  # diagonal s at p is -s at n - p, which is s at n - p - s
        if not all(cells == {n - s - p: v for p, v in cells.items()}
                   for s, cells in self._diagonals.items()):
            raise ValueError("table is not Serre-dual")
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "entries": [
            [p, q, v] for (p, q), v in sorted(self.entries().items())]}

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


def _halve(d: Diagonals) -> Diagonals:
    """The diagonals ``s >= 0`` of a Hodge-symmetric table: the one
    symmetry scan, which refuses any other table."""
    if not (all(-s in d for s in d) and all(  # diagonal -s is s moved up s
            d[-s] == {p + s: v for p, v in cells.items()}
            for s, cells in d.items() if s > 0)):
        raise ValueError("table is not Hodge-symmetric")
    return {s: cells for s, cells in d.items() if s >= 0}


# -- operations --------------------------------------------------------------


def _size(a: HodgeDiamond) -> tuple[int, int]:
    """The total and the largest of the entries of ``a``, for the kernels'
    slot widths: a stored diagonal ``s > 0`` counts twice."""
    d = a._diagonals
    return (sum((2 if s else 1) * sum(cells.values()) for s, cells in d.items()),
            max((max(cells.values()) for cells in d.values()), default=0))


def _pack(a: HodgeDiamond, w: int, psi: bool = False) -> _packed.Packed:
    """Every diagonal of ``a``, descending, packed at width ``w`` as the
    kernels take it: ``(s, x_s, psi_s)``, ``psi_s`` the diagonal at every
    other slot if ``psi``, else 0.  Diagonal ``-s`` is ``x_s`` shifted up
    ``s`` slots, with ``psi`` 0: no operation squares it on its own."""
    out = [(s, _packed.pack(cells, w), _packed.pack(cells, w, step=2) if psi else 0)
           for s, cells in sorted(a._diagonals.items(), reverse=True)]
    return out + [(-s, x << 8 * w * s, 0) for s, x, _ in reversed(out) if s > 0]


def _merge(s: int, t: int) -> int | None:
    """Diagonal ``s + t``, None below 0, ending a row of descending
    diagonals there."""
    return s + t if s + t >= 0 else None


def kunneth(a: HodgeDiamond, b: HodgeDiamond) -> HodgeDiamond:
    """Hodge diamond of a product: bigraded convolution of the two tables."""
    out = {}
    if a._diagonals and b._diagonals:  # else the slot bound is 0
        w = _packed.product_width(*_size(a), *_size(b))
        out = _packed.convolve(_pack(a, w), _pack(b, w), _merge, w)
    return HodgeDiamond._trusted(a.dim + b.dim, out)


def _square(a: HodgeDiamond, correction: dict[int, int]) -> HodgeDiamond:
    total, top = _size(a)
    w = _packed.square_width(total, top, max(correction.values(), default=0))
    out = _packed.square(
        _pack(a, w, psi=True), _merge,
        lambda s: () if s < 0 else ((2 * s, 1, -1 if s % 2 else 1),),
        [(0, _packed.pack(correction, w), 0)], w)
    return HodgeDiamond._trusted(2 * a.dim, out)


def sym2(a: HodgeDiamond) -> HodgeDiamond:
    """Graded symmetric square with the Koszul sign rule: the
    Z/2-coinvariants of ``H*(X) (x) H*(X)`` under the swap with sign
    ``(-1)^{|x||y|}``.  Two distinct bidegrees give the product of their
    entries; a bidegree paired with itself gives ``m(m+1)/2`` in even and
    ``m(m-1)/2`` in odd total degree.  Packed, diagonal ``s`` gives
    ``(x^2 + (-1)^s psi) / 2`` (``p + q`` has the parity of ``s``), every
    slot of whose numerator is even and nonnegative.
    """
    return _square(a, {})


def hilbert_square(a: HodgeDiamond) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of two points:
    ``Sym^2 X + ([P^{n-1}] - [pt]) X`` for ``n = dim >= 1``, the formula of
    ``motive.hilbert_square_class``: :func:`sym2`'s pass with the correction
    ``t + ... + t^{n-1}`` on diagonal 0, empty for a curve.
    """
    if a.dim < 1:
        raise ValueError("Hilbert square of a 0-dimensional variety is not modelled")
    return _square(a, {i: 1 for i in range(1, a.dim)})


def hh0(a: HodgeDiamond) -> int:
    """Sum of the diagonal entries ``h^{p,p}``: the dimension of degree-zero
    Hochschild homology via Hochschild--Kostant--Rosenberg."""
    return sum(a._diagonals.get(0, {}).values())


def diagonal(a: HodgeDiamond) -> list[int]:
    """The column ``[h^{0,0}, h^{1,1}, ..., h^{n,n}]``."""
    return [a.hodge(p, p) for p in range(a.dim + 1)]


def euler(a: HodgeDiamond) -> int:
    """Topological Euler characteristic: alternating sum over ``p + q``."""
    return sum((-1) ** (s % 2) * (2 if s else 1) * sum(cells.values())
               for s, cells in a._diagonals.items())  # p + q = 2p + s; -s too


def format_diamond(a: HodgeDiamond) -> str:
    """Render as the classical centered diamond, ``h^{n,n}`` on top."""
    n = a.dim  # row p + q = t, from p = min(n, t) down
    rows = [[a.hodge(p, t - p) for p in range(min(n, t), max(0, t - n) - 1, -1)]
            for t in range(2 * n, -1, -1)]
    width = max((len(str(v)) for row in rows for v in row), default=1) + 2
    return "\n".join("".join(str(v).center(width) for v in row)
                     .center((2 * n + 1) * width).rstrip() for row in rows)
