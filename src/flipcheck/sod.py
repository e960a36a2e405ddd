"""Semiorthogonal-decomposition ledgers.

A ledger forgets the ordering and gluing data of a semiorthogonal
decomposition and records only its multiset of components: a map from
category atoms (``Dpt`` for the derived category of a point, ``DC`` for that
of a curve ``C``, ``DSym2C``, ...) to nonnegative multiplicities.  Every
check performed here - component counts and additive invariants such as
``HH_0`` - depends on that content alone.

Symmetric squares expand component by component:

    Sym^2 <A_1, ..., A_m>  =  (Sym^2 A_i for each i)  +  (A_i (x) A_j, i<j)

with ``Sym^2 A`` and ``A (x) B`` resolved through an explicit rule table.
The defaults are the two root-stack rewrites ``Sym^2 DC -> {DSym2C, DC}``
and ``Sym^2 Dpt -> {Dpt: 2}`` together with the tensor rules
``DC (x) Dpt = DC`` and ``Dpt (x) Dpt = Dpt``; unknown pairs are errors,
never guesses.

Ledger scripts name these resolutions as atoms: ``Sym2_A`` for ``Sym^2 A``
and ``Tensor_A_B`` (names sorted) for ``A (x) B``.  A rule table is one map
from the atom each rule rewrites to its right-hand side, and an atom rule
wins over a sym2 or tensor rule for the same name.  ``sym2_ledger`` resolves
its pairs through the same map that normalizing a ledger rewrites with.

For the Hilbert square of an ``n``-fold whose derived category has the given
components, the ledger is ``Sym^2`` of the components plus ``n - 2`` extra
copies of each component (the projective-bundle part of the exceptional
divisor).
"""

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from . import comb


class SodLedger:
    """Multiset of category atoms; zero multiplicities are never stored."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: Mapping[str, int] = {}):
        for name, m in multiplicities.items():
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {name!r}")
        self.multiplicities = {name: m for name, m in multiplicities.items()
                               if m}

    @classmethod
    def _trusted(cls, multiplicities: dict[str, int]) -> "SodLedger":
        """Wrap a dict already known to hold only positive multiplicities."""
        led = object.__new__(cls)
        led.multiplicities = multiplicities
        return led

    def __eq__(self, other) -> bool:
        if not isinstance(other, SodLedger):
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __add__(self, other: "SodLedger") -> "SodLedger":
        out = dict(self.multiplicities)
        for name, m in other.multiplicities.items():
            out[name] = out.get(name, 0) + m
        return SodLedger._trusted(out)  # sums of positive multiplicities

    def total(self) -> int:
        return sum(self.multiplicities.values())

    def __repr__(self) -> str:
        return f"SodLedger({canonical_text(self)!r})"

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"name": name, "mult": m}
                for name, m in sorted(self.multiplicities.items())
            ]
        }


def substitute(ledger: SodLedger, name: str,
               replacement: SodLedger) -> SodLedger:
    """Replace every copy of the atom ``name`` by the replacement multiset."""
    out = dict(ledger.multiplicities)
    m = out.pop(name, 0)
    if m == 0:
        raise KeyError(f"atom {name!r} not present in ledger")
    for k, v in replacement.multiplicities.items():
        out[k] = out.get(k, 0) + m * v
    return SodLedger._trusted(out)  # m > 0 and every v > 0


# -- rewrite rules ------------------------------------------------------------


# One rewrite: ``kind`` is "atom", "sym2" or "tensor"; ``args`` is the atom
# name (atom/sym2) or the pair of names (tensor); ``rhs`` a ledger.  The
# ``.sod`` grammar fixes each rule's kind and arity.
RewriteRule = namedtuple("RewriteRule", "kind args rhs")


def canonical_text(value: SodLedger | RewriteRule) -> str:
    """The text of a ledger or a rule as ``dsl`` reads it, atoms sorted by
    name; ``dsl.print_canonical`` prints both through this, so a command
    that only prints ledgers loads no ``dsl``."""
    if isinstance(value, RewriteRule):
        lhs = (f"Sym2({value.args[0]})" if value.kind == "sym2"
               else " (*) ".join(value.args))  # an atom, or a tensor pair
        return f"{lhs} => {canonical_text(value.rhs)}"
    return "{" + ", ".join(f"{name}:{m}" for name, m
                           in sorted(value.multiplicities.items())) + "}"


def sym2_atom_name(name: str) -> str:
    return f"Sym2_{name}"


def tensor_atom_name(a: str, b: str) -> str:
    a, b = sorted((a, b))
    return f"Tensor_{a}_{b}"


class RuleTable:
    """Rule set for resolving Sym^2 atoms, tensor pairs and substitutions:
    one map from the ledger atom a rule rewrites (``A``, ``Sym2_A`` or
    ``Tensor_A_B``) to the rule's right-hand side."""

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.rules: dict[str, SodLedger] = {}
        self._atom_ruled: set[str] = set()
        for rule in rules:
            self.add(rule)

    def add(self, rule: RewriteRule) -> None:
        """Add a rule; an atom rule wins over a sym2 or tensor rule for the
        same atom, whichever comes first."""
        if rule.kind == "atom":
            name = rule.args[0]
            self._atom_ruled.add(name)
        else:
            name = (sym2_atom_name(rule.args[0]) if rule.kind == "sym2"
                    else tensor_atom_name(*rule.args))
            if name in self._atom_ruled:
                return
        self.rules[name] = rule.rhs

    def normalize(self, led: SodLedger) -> SodLedger:
        """Rewrite until no atom with a rule is left.  Each atom has one rule
        and rewriting is additive, so one pass over the rules a depth-first
        search reaches from the ledger, in reverse finishing order, applies
        each after every rule that reaches it.  An edge back onto the search
        path is a loop."""
        rules = self.rules
        done: dict[str, bool] = {}  # False while on the search path
        order: list[str] = []
        stack = [(name, False) for name in led.multiplicities if name in rules]
        while stack:
            name, finish = stack.pop()
            if finish:
                done[name] = True
                order.append(name)
            elif name not in done:
                done[name] = False
                stack.append((name, True))
                stack.extend((k, False) for k in rules[name].multiplicities
                             if k in rules)
            elif not done[name]:
                raise ValueError(f"rewrite rules loop through {name!r}")
        out = dict(led.multiplicities)
        for name in reversed(order):
            m = out.pop(name)  # final and positive: the rules reaching it ran
            for k, v in rules[name].multiplicities.items():
                out[k] = out.get(k, 0) + m * v
        return SodLedger._trusted(out)


def default_rules() -> RuleTable:
    """The rules the symmetric-square calculus of curve-plus-exceptional
    decompositions needs: root-stack rewrites for Sym^2 and the two standard
    tensor rules."""
    return RuleTable([
        RewriteRule("sym2", ("DC",), SodLedger({"DSym2C": 1, "DC": 1})),
        RewriteRule("sym2", ("Dpt",), SodLedger({"Dpt": 2})),
        RewriteRule("tensor", ("DC", "Dpt"), SodLedger({"DC": 1})),
        RewriteRule("tensor", ("Dpt", "Dpt"), SodLedger({"Dpt": 1})),
    ])


# -- symmetric squares and Hilbert squares of component lists -----------------


def sym2_ledger(components: Sequence[str],
                rules: RuleTable | None = None) -> SodLedger:
    """Ledger of ``Sym^2`` of a decomposition with the given components:
    one ``Sym^2 A_i`` per component plus one ``A_i (x) A_j`` for each pair
    ``i < j``, all resolved through the rule table.

    Each distinct name ``a`` of multiplicity ``k`` contributes
    ``k Sym^2 a + C(k, 2) a (x) a``, and each distinct pair ``a, b``
    contributes ``k_a k_b a (x) b``.  Pairs are resolved once each, through
    the ``Sym2_a`` and ``Tensor_a_b`` entries of the rule map, in the order
    the pairwise expansion first meets them, so the first unresolved pair is
    the one reported."""
    table = (rules if rules is not None else default_rules()).rules
    count: dict[str, int] = {}
    first: dict[str, int] = {}
    second: dict[str, int] = {}
    for i, name in enumerate(components):
        k = count.get(name, 0)
        if k == 0:
            first[name] = i
        elif k == 1:
            second[name] = i
        count[name] = k + 1
    out: dict[str, int] = {}

    def add(key: str, k: int, *names: str) -> None:
        rhs = table.get(key)
        if rhs is None:
            what = (f"Sym2({names[0]})" if len(names) == 1
                    else " (x) ".join(sorted(names)))
            raise ValueError(f"no rule for {what}")
        for name, m in rhs.multiplicities.items():
            out[name] = out.get(name, 0) + k * m

    distinct = list(count)
    for r, a in enumerate(distinct):
        add(sym2_atom_name(a), count[a], a)
        # the pairwise expansion meets each later name at its first copy,
        # and a itself at a's second copy
        partners = [(first[b], b) for b in distinct[r + 1:]]
        if a in second:
            partners.append((second[a], a))
            partners.sort()
        for _, b in partners:
            k = comb(count[a], 2) if b == a else count[a] * count[b]
            add(tensor_atom_name(a, b), k, a, b)
    return SodLedger(out)


def hilb2_ledger(x_components: Sequence[str],
                 n: int, rules: RuleTable | None = None) -> SodLedger:
    """Ledger for the Hilbert square of an ``n``-fold (``n >= 2``) whose
    derived category has the given components: the symmetric square plus
    ``n - 2`` further copies of every component."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    out = dict(sym2_ledger(x_components, rules).multiplicities)
    for name in x_components:
        out[name] = out.get(name, 0) + n - 2
    return SodLedger(out)  # drops the zeros n = 2 adds


# -- additive invariants and the obstruction check ----------------------------


def additive_invariant(led: SodLedger, assignment: Mapping[str, int]) -> int:
    """Evaluate an additive invariant: sum of multiplicity times value."""
    missing = [name for name in led.multiplicities if name not in assignment]
    if missing:
        raise ValueError(f"no invariant assigned to atom {min(missing)!r}")
    return sum(m * assignment[name] for name, m in led.multiplicities.items())


def embedding_obstruction(candidate_hh0: int, ambient_hh0: int) -> str:
    """Can a category with hh0 ``candidate_hh0`` sit inside one with hh0
    ``ambient_hh0``?  Returns ``"OBSTRUCTED"`` or ``"INCONCLUSIVE"``.

    hh0 is additive across semiorthogonal components, so candidate hh0
    exceeding ambient hh0 obstructs any embedding.  The comparison is
    one-directional: anything else is INCONCLUSIVE, never "embeddable".
    """
    if candidate_hh0 < 0 or ambient_hh0 < 0:
        raise ValueError("hh0 values must be nonnegative")
    if candidate_hh0 > ambient_hh0:
        return "OBSTRUCTED"
    return "INCONCLUSIVE"


# -- the intersection-of-two-quadrics ledgers ----------------------------------


def two_quadrics_components(n: int) -> list[str]:
    """Components of the derived category of a smooth intersection of two
    quadrics in P^{n+2}: the hyperelliptic curve category and ``n - 1``
    exceptional objects."""
    if n < 2:
        raise ValueError("need n >= 2")
    return ["DC"] + ["Dpt"] * (n - 1)


def hilb2_two_quadrics_ledger(n: int) -> SodLedger:
    """Hilbert-square ledger for the intersection of two quadrics:
    ``{DSym2C: 1, DC: 2n-2, Dpt: C(n-1,2) + 2(n-1) + (n-1)(n-2)}``."""
    return hilb2_ledger(two_quadrics_components(n), n)


def fano_scheme_conjecture_ledger(n: int) -> SodLedger:
    """Conjectural ledger for the Fano scheme of lines on the intersection
    of two quadrics (n odd): ``{DSym2C: 1, DC: n-3, Dpt: C(n-4,2) + 2(n-4)}``.
    The counts go negative below ``n = 5`` and are clamped at zero there;
    see :func:`conjecture_consistency` for the range flag."""
    if n < 3:
        raise ValueError("need n >= 3")
    points = (comb(n - 4, 2) if n >= 4 else 0) + max(2 * (n - 4), 0)
    return SodLedger({"DSym2C": 1, "DC": max(n - 3, 0), "Dpt": points})


def ogr_pencil_conjecture_ledger(n: int) -> SodLedger:
    """Conjectural ledger for the relative orthogonal Grassmannian of
    isotropic planes of a pencil of quadrics (n odd):
    ``{DC: n+1, Dpt: (n-1)(n+1)}``."""
    return SodLedger({"DC": n + 1, "Dpt": (n - 1) * (n + 1)})


def clifford_conjecture_ledger(n: int) -> SodLedger:
    """Ledger template for orthogonal-Grassmannian fibrations over a base
    ``S`` with even Clifford algebra ``Cl0``:
    ``{DCl0: n+1, DS: (n-1)(n+1)/2}`` for odd ``n``."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return SodLedger({"DCl0": n + 1, "DS": (n - 1) * (n + 1) // 2})


# in_stated_range is False for n < 5, where the counts were clamped
ConsistencyResult = namedtuple("ConsistencyResult",
                               "n holds in_stated_range hilb2")


def conjecture_consistency(n: int) -> ConsistencyResult:
    """Check ``hilb2 = fano + ogr`` as ledgers for odd ``n >= 3``.

    For ``n = 3`` the Fano-scheme counts are negative as written and are
    clamped, so the result is flagged as outside the stated range rather
    than asserted."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    lhs = hilb2_two_quadrics_ledger(n)
    rhs = fano_scheme_conjecture_ledger(n) + ogr_pencil_conjecture_ledger(n)
    return ConsistencyResult(
        n=n,
        holds=lhs == rhs,
        in_stated_range=n >= 5,
        hilb2=lhs,
    )
