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
every big multiply longer; only slots over 8 bytes (or a big-endian host)
take the per-slot loop.
"""

import sys
from collections.abc import Callable, Hashable, Mapping

Groups = Mapping[Hashable, Mapping[int, int]]  # {g: {exponent: coefficient}}

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
    tables = {g: {p: c for p, c in enumerate(coeffs) if c}
              for g, coeffs in lists.items()}
    return {g: cells for g, cells in tables.items() if cells}


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


def convolve(xs: Groups, ys: Groups, merge: Callable) -> Groups:
    """Grouped product: ``{merge(g, h): xs[g] * ys[h]}``, summed over the
    pairs that merge alike, except those that merge to None.  Coefficients
    are signed; each group multiplies as its positive part minus its
    negative part.
    ``merge(g, h)`` must determine ``h`` from ``g`` and the result, as both
    ``+`` and a product of monomials do: then each term of one side meets
    at most one term of the other in a slot, so every slot of either sum is
    at most the total of one side times the largest term of the other.
    """
    tx, ty = _total(xs), _total(ys)
    if not (tx and ty):
        return {}
    w = width(min(tx * _top(ys), ty * _top(xs)))
    px = [(g, _signed(cells, w)) for g, cells in xs.items()]
    py = [(h, _signed(cells, w)) for h, cells in ys.items()]
    pos: dict[Hashable, int] = {}
    neg: dict[Hashable, int] = {}
    for g, (xp, xn) in px:
        for h, (yp, yn) in py:
            key = merge(g, h)
            if key is None:
                continue
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


def square(xs: Groups, merge: Callable, own: Callable) -> Groups:
    """Symmetric square of ``sum_g xs[g] * g`` by Macdonald's formula, for
    nonnegative coefficients.

    Two groups ``g != h`` give ``xs[g] * xs[h]`` at ``merge(g, h)``, as in
    :func:`convolve`.  A group gives ``(c2 * a(t)^2 + c1 * a(t^2)) / 2`` at
    ``key`` for each ``(key, c2, c1)`` in ``own(g)``, where ``a = xs[g]``;
    the caller's rule keeps every slot of the numerator even and
    nonnegative, so one shift halves it slot by slot.  As in
    :func:`convolve`, each term meets at most one term of a group in a slot,
    so for ``c2 <= 1`` and ``|c1| <= 2`` a numerator slot is at most
    ``(T + 2) * max|c|`` for the total ``T`` of all coefficients, and an
    output slot, which counts a pair of units once, at most half that.
    """
    w = width((_total(xs) + 2) * _top(xs))
    packed = [(g, pack(cells, w), cells) for g, cells in xs.items()]
    out: dict[Hashable, int] = {}
    for i, (g, x, cells) in enumerate(packed):
        for key, c2, c1 in own(g):
            psi = pack(cells, w, step=2)
            out[key] = out.get(key, 0) + ((c2 * x * x + c1 * psi) >> 1)
        for h, y, _ in packed[i + 1:]:
            key = merge(g, h)
            if key is not None:
                out[key] = out.get(key, 0) + x * y
    return _tables({key: unpack(v, w) for key, v in out.items()})
