"""Built-in Hodge diamonds.

The three hand-entered tables are Python data, ``{name: (dim, {(p, q): h})}``,
each with a comment saying where the numbers come from.  Everything else
(projective spaces, curves, products) is generated.
"""

from .hodge import MAX_DIM, HodgeDiamond

# One table per variety whose Hodge numbers are taken from the literature
# rather than computed here.
_TABLES: dict[str, tuple[int, dict[tuple[int, int], int]]] = {
    # Smooth del Pezzo threefold of degree 2: double cover of P^3 branched
    # over a quartic surface.  b_3 = 20 with h^{2,1} = h^{1,2} = 10.
    "quartic-double-solid": (3, {(0, 0): 1, (1, 1): 1, (1, 2): 10,
                                 (2, 1): 10, (2, 2): 1, (3, 3): 1}),
    # Surface of lines on a general quartic double solid (branch quartic
    # containing no lines); irregular surface with h^1(Omega) = 220 after
    # Welters' cohomological study (1981).
    "f1-quartic-double-solid": (2, {(0, 0): 1, (1, 1): 220, (2, 2): 1}),
    # Degree-2 del Pezzo surface: blowup of P^2 in 7 points, Picard rank 8.
    "degree2-del-pezzo-surface": (2, {(0, 0): 1, (1, 1): 8, (2, 2): 1}),
}

# tables of h^{p,p} alone (f1 lacks its h^{1,0} = 10): they answer hh0 only
DIAGONAL_ONLY = frozenset({"f1-quartic-double-solid"})


def point() -> HodgeDiamond:
    return HodgeDiamond(0, {(0, 0): 1})


def projective_space(n: int) -> HodgeDiamond:
    """P^n: ones along the diagonal."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return HodgeDiamond(n, {(p, p): 1 for p in range(n + 1)})


def curve(g: int) -> HodgeDiamond:
    """Smooth projective curve of genus ``g``."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    entries = {(0, 0): 1, (1, 1): 1}
    if g:
        entries[(1, 0)] = g
        entries[(0, 1)] = g
    return HodgeDiamond(1, entries)


def intersection_of_two_quadrics(n: int) -> HodgeDiamond:
    """Smooth complete intersection of two quadrics in P^{n+2}, ``n`` odd.

    The middle cohomology matches H^1 of the hyperelliptic curve branched
    over the ``n + 3`` singular members of the pencil, of genus
    ``(n + 1) / 2``; all other Hodge numbers are those of projective space.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("only odd-dimensional intersections are tabulated")
    g = (n + 1) // 2
    entries = {(p, p): 1 for p in range(n + 1)}
    entries[((n + 1) // 2, (n - 1) // 2)] = g
    entries[((n - 1) // 2, (n + 1) // 2)] = g
    return HodgeDiamond(n, entries)


def builtin_names() -> list[str]:
    names = ["point", "p1", "p2", "p3", "curve-g<g>"]
    names.extend(sorted(_TABLES))
    return names


def builtin(name: str) -> HodgeDiamond:
    """Look up a diamond by CLI name; raises ``KeyError`` for unknown names."""
    if name == "point":
        return point()
    digits = name[1:]
    if name[:1] == "p" and _is_digits(digits):
        # longer than MAX_DIM is larger, and maybe too long for int()
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
            raise ValueError(f"builtin p<n> needs n <= {MAX_DIM}")
        return projective_space(int(digits))
    digits = name.removeprefix("curve-g")
    if name.startswith("curve-g") and _is_digits(digits):
        try:
            g = int(digits)
        except ValueError:  # more digits than Python converts
            raise ValueError(f"builtin curve-g<g>: genus too long "
                             f"({len(digits)} digits)") from None
        return curve(g)
    if name in _TABLES:
        return HodgeDiamond(*_TABLES[name]).validate()
    raise KeyError(name)


def _is_digits(text: str) -> bool:
    """One or more of 0-9 alone, as ``[0-9]+`` matches: ``str.isdigit``
    also takes other scripts' digits."""
    return text.isascii() and text.isdigit()
