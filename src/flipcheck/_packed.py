"""Packed polynomials: the one product and square kernel under ``hodge``
and ``motive``.

Both layers hold groups of integer polynomials in one variable: a Hodge
diamond's diagonal ``s = q - p`` is a polynomial in ``p``, and a motive
class's terms over one atom monomial ``g`` form a polynomial ``a_g(L)``.
A polynomial with coefficients in ``[0, bound]`` packs into one Python
integer (Kronecker substitution): coefficient ``p`` sits in the
``width``-byte slot ``p``, so one big-integer multiply convolves two
polynomials.  Slots never carry into each other because every output
coefficient is bounded before the width is chosen.

Slots are read and written in C: through ``memoryview.cast`` at the next
power-of-two width, with strided byte copies moving between that width and
the exact one.  Each slot keeps its exact width, since a wider slot makes
every big multiply longer: ``hodge.kunneth`` of two dense diamonds of
dimension 200 (entries up to 2,000, so 5-byte slots) took 1.5 s, and 3.5
s at 8-byte slots (best of 5, in-process, Python 3.11, 2-core Xeon).
Only slots over 8 bytes (or a big-endian host) take the per-slot loop.

Each kernel sizes and packs its groups before its one pair loop, or takes
them packed by a caller that sized them by the same bound: ``hodge`` packs
only the diagonals it stores and hands the others over as shifts of them.
"""

import sys
from collections.abc import Callable, Hashable, Mapping
from itertools import compress

Groups = Mapping[Hashable, Mapping[int, int]]  # {g: {exponent: coefficient}}
Packed = list[tuple[Hashable, int, int]]  # [(g, packed part, packed part)]

_NATIVE = sys.byteorder == "little"
# next power-of-two width for slot widths 1-8, and its memoryview format
_WIDE = (0, 1, 2, 4, 4, 8, 8, 8, 8)
_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def width(bound: int) -> int:
    """Bytes per slot for slot values in ``[0, bound]``."""
    return max(1, (bound.bit_length() + 7) // 8)


def pack(cells: Mapping[int, int], width: int, step: int = 1) -> int:
    """One integer with ``cells[p] >= 0`` in the ``width``-byte slot
    ``step * p``."""
    n = step * max(cells, default=0) + 1
    if width > 8 or not _NATIVE:
        buf = bytearray(width * n)
        for p, v in cells.items():
            at = width * step * p
            buf[at:at + width] = v.to_bytes(width, "little")
        return int.from_bytes(buf, "little")
    wide = _WIDE[width]
    buf = bytearray(wide * n)
    slots = memoryview(buf).cast(_FORMAT[wide])
    for p, v in cells.items():
        slots[step * p] = v
    if wide != width:
        exact = bytearray(width * n)
        for j in range(width):
            exact[j::width] = buf[j::wide]
        buf = exact
    return int.from_bytes(buf, "little")


def unpack(x: int, width: int) -> list[int]:
    """The slot values of ``x >= 0``, up to its highest nonzero slot."""
    n = -(-((x.bit_length() + 7) // 8) // width)
    raw = x.to_bytes(n * width, "little")
    if width > 8 or not _NATIVE:
        return [int.from_bytes(raw[at:at + width], "little")
                for at in range(0, n * width, width)]
    wide = _WIDE[width]
    if wide != width:
        buf = bytearray(wide * n)
        for j in range(width):
            buf[j::wide] = raw[j::width]
        raw = buf
    return memoryview(raw).cast(_FORMAT[wide]).tolist()


def _tables(lists: Mapping[Hashable, list[int]]) -> Groups:
    """Coefficient lists as groups, with no zero and no empty group."""
    return {g: dict(compress(enumerate(coeffs), coeffs))
            for g, coeffs in lists.items() if any(coeffs)}


def _total(groups: Groups) -> int:
    return sum(abs(c) for cells in groups.values() for c in cells.values())


def _top(groups: Groups) -> int:
    return max((abs(c) for cells in groups.values() for c in cells.values()),
               default=0)


def _signed(cells: Mapping[int, int], width: int) -> tuple[int, int]:
    """The packed positive and negative parts of signed coefficients."""
    if min(cells.values(), default=0) >= 0:
        return pack(cells, width), 0
    return (pack({p: c for p, c in cells.items() if c > 0}, width),
            pack({p: -c for p, c in cells.items() if c < 0}, width))


def product_width(tx: int, mx: int, ty: int, my: int) -> int:
    """Slot width of :func:`convolve` for sides of totals ``tx`` and ``ty``
    and largest terms ``mx`` and ``my``."""
    return width(min(tx * my, ty * mx))


def square_width(total: int, top: int, top_ys: int = 0) -> int:
    """Slot width of :func:`square` for ``xs`` of total ``total`` and
    largest term ``top``, and ``ys`` of largest term ``top_ys``."""
    return width((total + 2) * top // 2 + total * top_ys)


def convolve(xs: Groups | Packed, ys: Groups | Packed, merge: Callable,
             w: int = 0) -> Groups:
    """Grouped product: ``{merge(g, h): xs[g] * ys[h]}``, summed over the
    pairs that merge alike.  Coefficients are signed; each group multiplies
    as its positive part minus its negative part.  A merge to None ends the
    row of ``g``: a caller that drops a tail of each row orders ``ys`` so.
    ``merge(g, h)`` must determine ``h`` from ``g`` and the result, as both
    ``+`` and a product of monomials do: then each term of one side meets
    at most one term of the other in a slot, so every slot of either sum is
    at most the total of one side times the largest term of the other
    (:func:`product_width`).  Given that width ``w``, ``xs`` and ``ys``
    come packed at it, as lists of ``(g, positive part, negative part)``;
    otherwise they are groups, sized and packed here.
    """
    if not w:
        tx, ty = _total(xs), _total(ys)
        if not (tx and ty):
            return {}
        w = product_width(tx, _top(xs), ty, _top(ys))
        xs = [(g, *_signed(cells, w)) for g, cells in xs.items()]
        ys = [(h, *_signed(cells, w)) for h, cells in ys.items()]
    pos: dict[Hashable, int] = {}
    neg: dict[Hashable, int] = {}
    for g, xp, xn in xs:
        for h, yp, yn in ys:
            key = merge(g, h)
            if key is None:
                break
            pos[key] = pos.get(key, 0) + xp * yp + xn * yn
            if xn or yn:
                neg[key] = neg.get(key, 0) + xp * yn + xn * yp
    out = {}
    for key, p in pos.items():
        coeffs = unpack(p, w)
        if neg.get(key):
            minus = unpack(neg[key], w)
            coeffs += [0] * (len(minus) - len(coeffs))
            for i, c in enumerate(minus):
                coeffs[i] -= c
        out[key] = coeffs
    return _tables(out)


def square(xs: Groups | Packed, merge: Callable, own: Callable,
           ys: Groups | Packed = {}, w: int = 0) -> Groups:
    """Symmetric square of ``sum_g xs[g] * g`` by Macdonald's formula plus
    the product ``xs * ys`` (a correction polynomial, or none), in one pass,
    for nonnegative coefficients.  Two groups ``g != h`` give
    ``xs[g] * xs[h]``, and ``h`` in ``ys`` gives ``xs[g] * ys[h]``, at
    ``merge(g, h)``, rows ended as in :func:`convolve`.  A group gives
    ``(c2 * a(t)^2 + c1 * a(t^2)) / 2`` at ``key`` for each ``(key, c2,
    c1)`` in ``own(g)``, ``a = xs[g]``; the caller's rule keeps every slot
    of the numerator even and nonnegative, so one shift halves it, and
    gives distinct groups distinct keys.  Then a unit of ``xs`` meets the
    units of at most one cell in a slot, so for ``c2 <= 1`` and
    ``|c1| <= 2``, and the total ``T`` of ``xs``, a numerator slot is at
    most ``(T + 2) * max|c|`` and the product's at most ``T * max(ys)``.
    An output slot counts a pair of units once: the width holds
    ``(T + 2) * max|c| / 2 + T * max(ys)`` (:func:`square_width`).  Given
    that width ``w``, ``xs`` and ``ys`` come packed at it, as lists of
    ``(g, a(t), a(t^2))`` whose ``a(t^2)`` is 0 wherever ``own`` is empty
    or unused; otherwise they are groups, sized and packed here.
    """
    if not w:
        total = _total(xs)
        if not total:
            return {}
        w = square_width(total, _top(xs), _top(ys))
        xs = [(g, pack(cells, w), pack(cells, w, step=2))
              for g, cells in xs.items()]
        ys = [(h, pack(cells, w), 0) for h, cells in ys.items()]
    out: dict[Hashable, int] = {}
    for i, (g, x, psi) in enumerate(xs):
        for key, c2, c1 in own(g):
            out[key] = out.get(key, 0) + ((c2 * x * x + c1 * psi) >> 1)
        for row in (xs[i + 1:], ys):
            for h, y, _ in row:
                key = merge(g, h)
                if key is None:
                    break
                out[key] = out.get(key, 0) + x * y
    return _tables({key: unpack(v, w) for key, v in out.items()})
