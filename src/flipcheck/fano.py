"""Dimension and codimension bookkeeping for the three del Pezzo families.

For an ``n``-dimensional del Pezzo variety ``X`` of degree 3, 4 or 5, the
Hilbert scheme ``G_k(X)`` of ``k``-dimensional quadrics on ``X`` sits in a
standard flip against a bundle-side model, with center a projective bundle
over the Fano scheme ``F_{k+1}(X)`` of ``(k+1)``-planes.  Everything this
module computes is integer arithmetic about that picture:

* expected dimensions of Fano schemes:
    - cubics in P^{n+1}:            dim F_j = (j+1)(n+1-j) - C(j+3, 3)
    - two quadrics in P^{n+2}:      dim F_j = (j+1)(n-j+2) - 2 C(j+2, 2)
    - linear sections of Gr(2,5):   a table over 2 <= dim X <= 6, split into
      sigma-planes (inside some P(V_1 ^ V_5)) and tau-planes (inside some
      P(Lambda^2 V_3))
* emptiness thresholds and the resulting regime of the flip
* the flip shape (r, s): r + 1 = rank Sym^2 U_{k+2} = C(k+3, 2) always;
  s = k + 1 for cubics, s = 1 for pencils of quadrics, and per component
  s = 1 - k (sigma) / s = 1 (tau) for Gr(2,5) sections with k in {0, 1}
* the codimension identities closing each construction, checked as exact
  integers and, for fixed k, as affine polynomials in n
* component counts for the induced semiorthogonal decompositions
* splitting types of normal bundles of lines and the induced splitting on
  the Hilbert square of a line, plus the rank-2 splitting verification on
  P^2 via Kunneth cohomology on P^1 x P^1.
"""

import enum
from collections import namedtuple
from collections.abc import Sequence
from math import comb

from .sod import SodLedger


class Family(enum.Enum):
    CUBIC = "cubic"
    TWO_QUADRICS = "two-quadrics"
    GR25_SECTION = "gr25"


def parse_family(text: str) -> Family:
    for fam in Family:
        if fam.value == text:
            return fam
    raise ValueError(f"unknown family {text!r}; expected one of "
                     + ", ".join(f.value for f in Family))


def check_cell(family: Family, n: int, k: int) -> None:
    """Raise ``ValueError`` unless ``n = dim X >= 1``, ``0 <= k <= n`` for
    the quadric dimension ``k``, and ``2 <= n <= 6`` for Gr(2,5) sections."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > n:
        raise ValueError(f"k = {k} exceeds n = {n}")
    if family is Family.GR25_SECTION and not 2 <= n <= 6:
        raise ValueError("Gr(2,5) sections have 2 <= dim X <= 6")


class FlipShape(namedtuple("FlipShape", "r s")):
    """Projective-bundle fiber dimensions of a standard flip: the center is
    a P^r-bundle over a Fano scheme, its replacement a P^s-bundle; ``s = -1``
    marks an empty replacement side (degenerate regime)."""

    __slots__ = ()

    def is_degenerate(self) -> bool:
        return self.s == -1


def rank_sym2_u(k: int) -> int:
    """Rank of Sym^2 of the rank-(k+2) tautological subbundle: C(k+3, 2)."""
    return comb(k + 3, 2)


# -- expected dimensions -------------------------------------------------------

# one column of the dimension table for a Gr(2,5) section
Gr25DimRow = namedtuple("Gr25DimRow", "n f1 f2_sigma f2_tau f3")

# Prop-table dimensions for linear sections of Gr(2,5); None marks an empty
# Fano scheme.  Keyed by dim X in [2, 6].
_GR25_ROWS = {row.n: row for row in (
    Gr25DimRow(2, 0, None, None, None),
    Gr25DimRow(3, 2, None, None, None),
    Gr25DimRow(4, 4, 1, 0, None),
    Gr25DimRow(5, 6, 4, 3, 0),
    Gr25DimRow(6, 8, 7, 6, 4),
)}


def gr25_dim_row(n: int) -> Gr25DimRow:
    if n not in _GR25_ROWS:
        raise ValueError("Gr(2,5) sections have 2 <= dim X <= 6")
    return _GR25_ROWS[n]


def expected_dim_fano(family: Family, n: int, k_planes: int) -> int:
    """Expected dimension of the Fano scheme of ``k_planes``-planes on a
    cubic or an intersection of two quadrics; it may be negative (empty is a
    separate classification, never silently clamped).  Gr(2,5) sections
    read :func:`gr25_dim_row` instead."""
    if k_planes < 0:
        raise ValueError("k_planes must be nonnegative")
    j = k_planes
    if family is Family.CUBIC:
        return (j + 1) * (n + 1 - j) - comb(j + 3, 3)
    if family is Family.TWO_QUADRICS:
        return (j + 1) * (n - j + 2) - 2 * comb(j + 2, 2)
    raise ValueError("Gr(2,5) dimensions come from its table, not a formula")


# -- emptiness regimes ---------------------------------------------------------


class Regime(enum.Enum):
    """Where the parameters fall relative to the emptiness thresholds.

    NONEMPTY_EXPECTED: both sides populated, genuine flip.
    F_K_EMPTY: the Hilbert scheme of quadrics itself is empty (for pencils
    of quadrics this is the regime where the relative orthogonal
    Grassmannian side is empty).
    F_K1_EMPTY_FLIP_DEGENERATES: no (k+1)-planes, so the flip collapses to
    an isomorphism with the bundle side.
    DISJOINT_UNION: the Gr(2,5) k = 2 case, a disjoint union of the bundle
    side and a quadric bundle over F_3; not a flip.
    """

    NONEMPTY_EXPECTED = "nonempty_expected"
    F_K_EMPTY = "F_k_empty"
    F_K1_EMPTY_FLIP_DEGENERATES = "F_k1_empty_flip_degenerates"
    DISJOINT_UNION = "disjoint_union"


def emptiness_threshold(family: Family, n: int, k: int) -> Regime:
    """Classify ``G_k(X)`` by the emptiness thresholds of the two Fano
    schemes involved: a Fano scheme of negative expected dimension is
    empty, and the Gr(2,5) table marks its empty ones."""
    if k < 0 or n < 1:
        raise ValueError("need n >= 1 and k >= 0")
    if family is Family.GR25_SECTION:
        row = gr25_dim_row(n)
        if k == 0:
            return Regime.NONEMPTY_EXPECTED  # F_1 nonempty for every 2 <= n <= 6
        if k == 1:
            if row.f2_sigma is None and row.f2_tau is None:
                return Regime.F_K1_EMPTY_FLIP_DEGENERATES
            return Regime.NONEMPTY_EXPECTED
        if k == 2 and row.f3 is not None:
            return Regime.DISJOINT_UNION
        return Regime.F_K1_EMPTY_FLIP_DEGENERATES  # no (k+1)-planes
    if family is Family.CUBIC:
        f_k_empty = expected_dim_fano(family, n, k) < 0
    else:  # the pencil's isotropic side is empty iff n < k - 1 + (k+3)/2
        f_k_empty = 2 * n < 3 * k + 1
    if f_k_empty:
        return Regime.F_K_EMPTY
    if expected_dim_fano(family, n, k + 1) < 0:
        return Regime.F_K1_EMPTY_FLIP_DEGENERATES
    return Regime.NONEMPTY_EXPECTED


# -- flip shapes ---------------------------------------------------------------


def flip_shapes(family: Family, n: int, k: int) -> list[FlipShape]:
    """The flip shape(s) for ``G_k(X)``, one per component of the
    replacement center over ``F_{k+1}(X)`` (Gr(2,5) sections with k = 1 have
    a sigma and then a tau component).  Degenerate regimes carry the
    ``s = -1`` marker."""
    check_cell(family, n, k)
    r = rank_sym2_u(k) - 1
    regime = emptiness_threshold(family, n, k)
    degenerate = regime is not Regime.NONEMPTY_EXPECTED
    if family is Family.CUBIC:
        return [FlipShape(r, -1 if degenerate else k + 1)]
    if family is Family.TWO_QUADRICS or k == 0:
        return [FlipShape(r, -1 if degenerate else 1)]
    if k == 1:
        # kernel bundle has rank 2 - k = 1 over sigma-planes, rank 2 over tau
        return [FlipShape(r, -1 if degenerate else 0),
                FlipShape(r, -1 if degenerate else 1)]
    return [FlipShape(r, -1)]


# -- codimension identities ----------------------------------------------------


class IdentityCheck(namedtuple("IdentityCheck", "name lhs rhs")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class CodimReport(namedtuple("CodimReport", "family n k checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n": self.n,
            "k": self.k,
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}
                for c in self.checks
            ],
        }


def verify_codim_identity(family: Family, n: int, k: int) -> CodimReport:
    """Evaluate both sides of the identity chain showing that the
    replacement center is cut out in the expected codimension
    ``rank Sym^2 U_{k+2}``, as exact integers.
    """
    rank = rank_sym2_u(k)
    checks: list[IdentityCheck] = []
    if family is Family.CUBIC:
        dim_f_k = expected_dim_fano(family, n, k)
        dim_f_k1 = expected_dim_fano(family, n, k + 1)
        dim_zprime = dim_f_k1 + (k + 1)        # flag bundle P^{k+1} fibers
        middle = dim_f_k + (n - k) - rank
        dim_yprime = dim_f_k + (n - k)         # P(Q_{k+1}) has P^{n-k} fibers
        checks.append(IdentityCheck("dim_Zprime = reindexed form",
                                    dim_zprime, middle))
        checks.append(IdentityCheck("reindexed form = dim_Yprime - rank",
                                    middle, dim_yprime - rank))
    elif family is Family.TWO_QUADRICS:
        dim_f_k1 = expected_dim_fano(family, n, k + 1)
        dim_zprime = dim_f_k1 + 1              # pencil P^1 factor
        dim_yprime = (k + 2) * (n - k + 1) - rank + 1  # isotropic side
        middle = dim_yprime - rank
        checks.append(IdentityCheck("dim_Zprime = split form",
                                    dim_zprime, middle))
        checks.append(IdentityCheck("split form = dim_Yprime - rank",
                                    middle, dim_yprime - rank))
    else:
        if k not in (0, 1):
            raise ValueError("codimension identities apply to k in {0, 1}")
        row = gr25_dim_row(n)
        sigma = row.f2_sigma if k == 1 else row.f1
        if sigma is None:
            raise ValueError(
                f"no k = {k} identity at n = {n}: the sigma component is empty"
            )
        dim_zprime = sigma + 1 - k             # P(kernel) fibers of dim 1 - k
        dim_yprime = 4 + (k + 2) * (n - k - 2)  # Grassmann bundle over P^4
        rhs = (n - k - 2) * (k + 2) + 4 - rank
        closed = 2 * n - 3 if k == 0 else 3 * n - 11
        checks.append(IdentityCheck("dim_Zprime = dim_Yprime - rank",
                                    dim_zprime, dim_yprime - rank))
        checks.append(IdentityCheck("dim_Yprime - rank, expanded",
                                    dim_yprime - rank, rhs))
        checks.append(IdentityCheck("closed form in n", rhs, closed))
        if k == 1:
            tau = row.f2_tau
            if tau is not None:
                checks.append(IdentityCheck(
                    "equidimensional center: dim sigma = dim tau + 1",
                    sigma, tau + 1))
    return CodimReport(family, n, k, tuple(checks))


def verify_codim_identity_symbolic(family: Family, k: int) -> bool:
    """The identity chain for fixed ``k`` as affine functions of n, for the
    two hypersurface-type families: sampled at n = 0, 1, 2, both sides of
    every check agree and the samples are collinear."""
    if family is Family.GR25_SECTION:
        raise ValueError("the Gr(2,5) table is not polynomial in n")
    samples = [verify_codim_identity(family, n, k).checks for n in (0, 1, 2)]
    return all(c0.passed and c1.passed and c2.passed
               and c2.lhs - c1.lhs == c1.lhs - c0.lhs
               for c0, c1, c2 in zip(*samples))


# -- decomposition component counts --------------------------------------------


# Component multiset(s) for the decomposition of D^b(G_k(X)): ``flip_form``
# keeps the bundle side as a single atom (D_PQ or D_OGr); for cubics
# ``expanded_form`` trades it for copies of D_F<k>.
SodCounts = namedtuple("SodCounts", "flip_form expanded_form",
                       defaults=(None,))


def sod_counts(family: Family, n: int, k: int) -> SodCounts:
    check_cell(family, n, k)
    if family is Family.CUBIC:
        extra = rank_sym2_u(k) - (k + 2)
        flip_form = SodLedger({"D_PQ": 1, f"D_F{k + 1}": extra})
        expanded = SodLedger({f"D_F{k}": n - k + 2, f"D_F{k + 1}": extra})
        return SodCounts(flip_form, expanded)
    if family is Family.TWO_QUADRICS:
        extra = rank_sym2_u(k) - 2
        return SodCounts(SodLedger({"D_OGr": 1, f"D_F{k + 1}": extra}))
    raise ValueError(
        "Gr(2,5) sections carry a full exceptional collection; no ledger "
        "template is tabulated"
    )


# -- normal bundles of lines and their Hilbert squares -------------------------

SplittingType = tuple[int, ...]  # sorted degrees of a direct sum of O(a_i)
MAX_LINE_N = 100_000  # largest n: each splitting type lists n - 1 summands


def enumerate_line_splittings(n: int) -> list[SplittingType]:
    """Splitting types of the normal bundle of a line in an ``n``-dimensional
    del Pezzo variety with very ample polarization.

    The bundle has ``n - 1`` summands ``O(a_i)`` with ``a_i <= 1`` and total
    degree ``n - 3``, so the deficits ``1 - a_i`` form a partition of 2:
    either two summands drop to O (type ``O^2 + O(1)^{n-3}``) or one drops
    to O(-1) (type ``O(-1) + O(1)^{n-2}``).  For ``n = 2`` only the second
    type fits in a single summand.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > MAX_LINE_N:
        raise ValueError(f"need n <= {MAX_LINE_N}")
    types: list[SplittingType] = []
    if n >= 3:  # deficit pattern {1, 1} needs two summands
        types.append(tuple(sorted((0, 0) + (1,) * (n - 3))))
    types.append(tuple(sorted((-1,) + (1,) * (n - 2))))
    return sorted(types)


def brute_force_line_splittings(n: int) -> list[SplittingType]:
    """Oracle for :func:`enumerate_line_splittings`: every multiset of
    ``n - 1`` integers in ``[-10, 1]`` summing to ``n - 3``, sorted.

    A depth-first search over nondecreasing tuples, in increasing order,
    cuts each branch whose remaining entries cannot reach the sum: ``k``
    entries from ``a`` up to ``1`` sum to between ``k * a`` and ``k``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    found: list[SplittingType] = []
    _extend_splittings(found, (), -10, n - 1, n - 3)
    return found


def _extend_splittings(found: list[SplittingType], prefix: tuple[int, ...],
                       low: int, left: int, need: int) -> None:
    if not left:
        found.append(prefix)
        return
    for a in range(low, 2):
        if (left - 1) * a <= need - a <= left - 1:
            _extend_splittings(found, prefix + (a,), a, left - 1, need - a)


def hilb2_normal_restriction(n: int) -> SplittingType:
    """Splitting of the normal bundle of (line)^[2] = P^2 inside X^[2].

    Applies the splitting of O(a)^[2] on (line)^[2] = P^2 from
    :data:`TAUT_SPLITTINGS`, O(-1) -> O(-1)^2, O -> O + O(-1), O(1) -> O^2,
    summand by summand to every line splitting type; both types
    collapse to the same answer O(-1)^2 + O^{2n-4}.
    """
    results = set()
    for splitting in enumerate_line_splittings(n):
        doubled: list[int] = []
        for a in splitting:
            doubled.extend(TAUT_SPLITTINGS[a])
        results.add(tuple(sorted(doubled)))
    if len(results) != 1:
        raise ArithmeticError(f"splitting types disagree after doubling: {results}")
    result = results.pop()
    expected = tuple(sorted((-1, -1) + (0,) * (2 * n - 4)))
    if result != expected:
        raise ArithmeticError(f"expected O(-1)^2 + O^{2 * n - 4}, got {result}")
    return result


def format_splitting(splitting: SplittingType) -> str:
    """Render (-1, 0, 0, 1) as ``O(-1) + O^2 + O(1)``."""
    parts = []
    for a in sorted(set(splitting)):
        m = splitting.count(a)
        base = "O" if a == 0 else f"O({a})"
        parts.append(base if m == 1 else f"{base}^{m}")
    return " + ".join(parts)


# -- cohomology of line bundles and the tautological splittings ----------------


def h_p1(e: int) -> tuple[int, int]:
    """(h^0, h^1) of O(e) on P^1."""
    return (max(e + 1, 0), max(-e - 1, 0))


def h_p2(e: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of O(e) on P^2."""
    h0 = comb(e + 2, 2) if e >= 0 else 0
    h2 = comb(-e - 1, 2) if e <= -3 else 0
    return (h0, 0, h2)


def h_p1xp1(e1: int, e2: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of O(e1, e2) on P^1 x P^1 by the Kunneth formula."""
    a0, a1 = h_p1(e1)
    b0, b1 = h_p1(e2)
    return (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)


# claimed splitting of the rank-2 tautological bundle O(d)^[2] on
# (P^1)^[2] = P^2, for d in {-1, 0, 1}
TAUT_SPLITTINGS = {-1: (-1, -1), 0: (-1, 0), 1: (0, 0)}


class TautRow(namedtuple("TautRow", "twist lhs rhs")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs and self.lhs[1] == 0


def verify_taut_splitting(d: int, twist_window: Sequence[int]
                          ) -> tuple[TautRow, ...]:
    """Check O(d)^[2] = O(a) + O(b) on P^2 through cohomology, one row per
    twist.

    Pushing forward along the double cover P^1 x P^1 -> P^2 identifies
    R Gamma(O(d)^[2] (x) O(m)) with R Gamma(O(m+d, m)) on P^1 x P^1, so for
    every twist ``m`` the Kunneth numbers must match the claimed split
    bundle's cohomology on P^2, and H^1 must vanish throughout (the
    splitting criterion input for rank-2 bundles on P^2).
    """
    if d not in TAUT_SPLITTINGS:
        raise ValueError("d must be -1, 0 or 1")
    a, b = TAUT_SPLITTINGS[d]
    rows = []
    for m in twist_window:
        lhs = h_p1xp1(m + d, m)
        ra = h_p2(a + m)
        rb = h_p2(b + m)
        rhs = tuple(x + y for x, y in zip(ra, rb))
        rows.append(TautRow(m, lhs, rhs))
    return tuple(rows)


# -- degree classification -----------------------------------------------------


_DEGREE_TABLE = {
    1: "sextic hypersurface in the weighted projective space P(1^n, 2, 3)",
    2: "double cover of P^n branched over a quartic hypersurface",
    3: "cubic hypersurface in P^{n+1}",
    4: "complete intersection of 2 quadric hypersurfaces in P^{n+2}",
    5: "linear section of Gr(2,5) in P^9 via the Pluecker embedding, "
       "with 2 <= dim X <= 6",
    6: "linear section of (P^1)^3 in P^7 or of (P^2)^2 in P^8 "
       "via the Segre embeddings",
    7: "del Pezzo surface of degree 7, or the blowup of P^3 at one point",
    8: "P^3, or a del Pezzo surface of degree 8",
    9: "P^2",
}


def degree_classification(d: int) -> str:
    """Classification of del Pezzo varieties by degree ``d = H^n``."""
    if d not in _DEGREE_TABLE:
        raise ValueError(f"degree must be in [1, 9], got {d}")
    return _DEGREE_TABLE[d]
