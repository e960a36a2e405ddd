"""A fragment of the Grothendieck ring of varieties.

Elements are integer-coefficient polynomials in the Lefschetz class ``L``
(the class of the affine line) over formal generator atoms such as ``X``,
``F`` or ``C``.  The atom ``pt`` is the multiplicative unit and is absorbed
on sight.  Atoms carry no relations; the geometric identities used here are
explicit operations:

* ``[P^n] = 1 + L + ... + L^n``
* blowup relation  ``[Bl_Z X] = [X] + [Z] ([P^{c-1}] - 1)`` for codimension c
* the standard-flip relation ``[X] - [X'] = [F] ([P^r] - [P^s])``, obtained
  by writing the common blowup ``Bl_Z X = Bl_{Z'} X'`` in both ways with
  ``Z = P_F(E)`` of codimension ``s + 1`` and ``Z' = P_F(E')`` of
  codimension ``r + 1``
* a symmetric-square rule on the fragment of sums of terms ``L^i * g``
  (``g`` one atom or 1): ``Sym^2`` distributes over sums via
  ``Sym^2(A + B) = Sym^2 A + A B + Sym^2 B`` and sends ``L^i g`` to
  ``L^{2i} Sym2_g``, where ``Sym2_g`` is a declared atom.  There is no
  division by 2 anywhere: the ring has no 1/2.

The Hilbert-square class is then
``[X^[2]] = Sym^2 [X] + ([P^{n-1}] - 1) [X]``.
"""

from collections.abc import Mapping

from . import _packed

# a monomial is a sorted tuple of atom names; "pt" never appears
Monomial = tuple[str, ...]
TermKey = tuple[int, Monomial]  # (power of L, monomial)

RESERVED_ATOMS = ("L", "Sym2")


class FragmentError(ValueError):
    """Input lies outside the fragment an operation supports."""


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    return tuple(sorted(m1 + m2))


# Monomial groups of fewer terms multiply and square term by term.  On
# groups of n terms with coefficients 1 to 3 in L, packed and flat products
# of two groups break even at about n = 10; signed products at 11 to 12,
# squares at 9, and squares of an atom's group at 8.
_PACK_MIN = 10


def _grouped(terms: Mapping[TermKey, int]
             ) -> tuple[list[tuple[TermKey, int]], dict[Monomial, dict[int, int]]]:
    """The terms of the monomial groups that stay term by term, and the
    groups that pack as ``{monomial: {power of L: coefficient}}``.

    A group packs when it has ``_PACK_MIN`` terms or more and fewer slots,
    one per power of L up to its highest, than term-by-term products: a
    sparse group of high degree would allocate a slot per power."""
    groups: dict[Monomial, dict[int, int]] = {}
    for (lp, mono), c in terms.items():
        groups.setdefault(mono, {})[lp] = c
    flat, packed = [], {}
    for mono, g in groups.items():
        if len(g) >= _PACK_MIN and max(g) < len(g) ** 2:
            packed[mono] = g
        else:
            flat.extend(((lp, mono), c) for lp, c in g.items())
    return flat, packed


def _items(groups: Mapping[Monomial, Mapping[int, int]]):
    return (((lp, mono), c) for mono, g in groups.items() for lp, c in g.items())


def _records(items) -> list[tuple[int, Monomial, str | None, int]]:
    """Right-hand terms for :func:`_mul_flat`: ``(power, monomial, name,
    coefficient)``, with ``name`` the atom of a one-atom monomial, else None.
    Most products in scripts have one term on the right, and on Python 3.11
    this loop builds that list faster than a comprehension does."""
    records = []
    for (lp, m), c in items:
        records.append((lp, m, m[0] if len(m) == 1 else None, c))
    return records


def _mul_flat(terms: dict[TermKey, int], xs, ys) -> None:
    """Add the product of ``(key, coefficient)`` terms ``xs`` and records
    ``ys`` (:func:`_records`).  A one-atom term times a one-atom record
    merges the two names by one comparison; every other pair merges by
    :func:`_mul_monomials`."""
    get = terms.get
    for (l1, m1), c1 in xs:
        a = m1[0] if len(m1) == 1 else None
        for l2, m2, b, c2 in ys:
            if a is None or b is None:
                mono = _mul_monomials(m1, m2)
            else:
                mono = (a, b) if a <= b else (b, a)
            key = (l1 + l2, mono)
            terms[key] = get(key, 0) + c1 * c2


def _add_packed(terms: dict[TermKey, int], packed: _packed.Groups) -> None:
    """Add the packed kernel's ``{monomial: {power of L: coefficient}}``."""
    for key, c in _items(packed):
        terms[key] = terms.get(key, 0) + c


class MotiveExpr:
    """Polynomial in ``L`` over commuting formal atoms, exact integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, int] | None = None):
        clean: dict[TermKey, int] = {}
        if terms:
            for (lp, mono), c in terms.items():
                if c:
                    clean[(lp, tuple(mono))] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict[TermKey, int]) -> "MotiveExpr":
        """Wrap a dict whose keys are already ``(int, sorted tuple)``,
        leaving out zero coefficients."""
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        x = object.__new__(cls)
        x.terms = terms
        return x

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "MotiveExpr":
        return cls._trusted({(0, ()): c})

    @classmethod
    def lefschetz(cls, power: int = 1) -> "MotiveExpr":
        if power < 0:
            raise ValueError("negative powers of L are not in the ring")
        return cls._trusted({(power, ()): 1})

    @classmethod
    def atom(cls, name: str) -> "MotiveExpr":
        if name in RESERVED_ATOMS:
            raise ValueError(f"{name!r} is reserved")
        if name == "pt":
            return cls.const(1)  # the unit atom
        return cls._trusted({(0, (name,)): 1})

    # -- ring structure --------------------------------------------------

    def __add__(self, other) -> "MotiveExpr":
        other = _coerce(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return MotiveExpr._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "MotiveExpr":
        return MotiveExpr._trusted({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "MotiveExpr":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "MotiveExpr":
        """Grouped by atom monomial: two groups that pack (:func:`_grouped`)
        multiply as one packed product, other pairs term by term.
        ``other`` is grouped only when ``self`` has such a group."""
        other = _coerce(other)
        terms: dict[TermKey, int] = {}
        groups = {}
        if len(self.terms) >= _PACK_MIN and len(other.terms) >= _PACK_MIN:
            flat, groups = _grouped(self.terms)
        if not groups:
            _mul_flat(terms, self.terms.items(), _records(other.terms.items()))
            return MotiveExpr._trusted(terms)
        other_flat, other_groups = _grouped(other.terms)
        _mul_flat(terms, flat, _records(other.terms.items()))
        _mul_flat(terms, _items(groups), _records(other_flat))
        _add_packed(terms, _packed.convolve(groups, other_groups, _mul_monomials))
        return MotiveExpr._trusted(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MotiveExpr.const(other)
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from . import dsl

        return f"MotiveExpr({dsl.print_canonical(self)!r})"

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def l_coefficients(self) -> list[int]:
        """Coefficients of ``1, L, L^2, ...`` of the atom-free part."""
        top = max((lp for (lp, mono) in self.terms if not mono), default=-1)
        return [self.terms.get((i, ()), 0) for i in range(top + 1)]

    def specialize(self, assignment: Mapping[str, int], l_value: int = 1) -> int:
        """Ring homomorphism to the integers: ``L`` to ``l_value`` and every
        atom to the assigned integer (e.g. its Euler characteristic).
        """
        total = 0
        for (lp, mono), c in self.terms.items():
            value = c * l_value**lp
            for name in mono:
                if name not in assignment:
                    raise KeyError(f"no value assigned to atom {name!r}")
                value *= assignment[name]
            total += value
        return total


def _coerce(value) -> MotiveExpr:
    if isinstance(value, MotiveExpr):
        return value
    if isinstance(value, int):
        return MotiveExpr.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to MotiveExpr")


ONE = MotiveExpr.const(1)


def class_of_pn(n: int) -> MotiveExpr:
    """``[P^n] = 1 + L + ... + L^n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return MotiveExpr({(i, ()): 1 for i in range(n + 1)})


def blowup_class(x: MotiveExpr, z: MotiveExpr, c: int) -> MotiveExpr:
    """``[Bl_Z X] = [X] + [Z] ([P^{c-1}] - 1)`` for codimension ``c >= 1``;
    a divisor (``c = 1``) leaves ``[X]`` as it is."""
    if c < 1:
        raise ValueError(f"blowup codimension must be >= 1, got {c}")
    return x + z * (class_of_pn(c - 1) - ONE)


def flip_difference(f: MotiveExpr, r: int, s: int) -> MotiveExpr:
    """``[X] - [X']`` across a standard flip with center base class ``f``
    and projective-bundle fiber dimensions ``(r, s)``:
    ``f * ([P^r] - [P^s])``.  Antisymmetric in ``(r, s)``; zero for a flop.
    """
    if r < 0 or s < 0:
        raise ValueError("fiber dimensions must be nonnegative")
    return f * (class_of_pn(r) - class_of_pn(s))


def sym2_atom_name(name: str) -> str:
    return f"Sym2_{name}"


def _sym2_rule(g: Monomial) -> tuple[tuple[Monomial, int, int], ...]:
    """Macdonald's terms of ``Sym^2(a(L) g)`` as ``(monomial, c2, c1)``, each
    meaning ``monomial * (c2 * a(L)^2 + c1 * a(L^2)) / 2``:
    ``(a(L)^2 + a(L^2)) / 2`` for ``g = 1``, and
    ``Sym2_g a(L^2) + g^2 (a(L)^2 - a(L^2)) / 2`` for an atom ``g``."""
    if not g:
        return (((), 1, 1),)
    return (((sym2_atom_name(g[0]),), 0, 2), (g + g, 1, -1))


def sym2_class(x: MotiveExpr) -> MotiveExpr:
    """Symmetric square on the fragment of sums of terms ``L^i * g``.

    Coefficients must be nonnegative (a coefficient ``m`` counts ``m``
    copies of the term); each monomial must be empty or one atom to the
    first power.  Squares of single copies become declared ``Sym2_*`` atoms,
    ``Sym^2(L^i) = L^{2i}``, and cross terms multiply out.  Terms are
    grouped by monomial: a group that packs (:func:`_grouped`) squares
    packed, by Macdonald's formula (:func:`_sym2_rule`), and two such
    groups multiply packed; the other terms square and multiply one by
    one.
    """
    bad = [key for key, c in x.terms.items() if c < 0 or len(key[1]) > 1]
    if bad:
        lp, mono = key = min(bad)
        if x.terms[key] < 0:
            raise FragmentError(
                f"negative coefficient {x.terms[key]} at L^{lp}: "
                "not an effective class"
            )
        raise FragmentError(f"monomial {'*'.join(mono)} is not a single atom")
    if len(x.terms) < _PACK_MIN:
        flat, groups = list(x.terms.items()), {}
    else:
        flat, groups = _grouped(x.terms)
    terms: dict[TermKey, int] = {}
    get = terms.get
    records = _records(flat)
    for i, ((lp, mono), m) in enumerate(flat):
        if mono:
            key = (2 * lp, (sym2_atom_name(mono[0]),))
            terms[key] = get(key, 0) + m
            key = (2 * lp, mono + mono)
            terms[key] = get(key, 0) + m * (m - 1) // 2
        else:
            key = (2 * lp, ())
            terms[key] = get(key, 0) + m * (m + 1) // 2
        _mul_flat(terms, flat[i:i + 1], records[i + 1:])
    if groups:
        _mul_flat(terms, flat, _records(_items(groups)))
        _add_packed(terms, _packed.square(groups, _mul_monomials, _sym2_rule))
    return MotiveExpr._trusted(terms)


def hilbert_square_class(x: MotiveExpr, n: int) -> MotiveExpr:
    """``[X^[2]] = Sym^2 [X] + ([P^{n-1}] - 1) [X]`` for ``dim X = n >= 1``."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return sym2_class(x) + (class_of_pn(n - 1) - ONE) * x
