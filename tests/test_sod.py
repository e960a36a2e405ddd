import math
import re
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flipcheck
from flipcheck import hodge, sod, varieties
from flipcheck.sod import (RewriteRule, RuleTable, SodLedger,
                           additive_invariant,
                           clifford_conjecture_ledger, conjecture_consistency,
                           default_rules, embedding_obstruction,
                           fano_scheme_conjecture_ledger, hilb2_ledger,
                           hilb2_two_quadrics_ledger,
                           ogr_pencil_conjecture_ledger,
                           substitute, sym2_ledger, tensor_atom_name,
                           two_quadrics_components)

ledger_names = st.sampled_from(["DC", "DSym2C", "Dpt", "DCl0", "DS"])
ledgers = st.dictionaries(ledger_names, st.integers(1, 30), max_size=4).map(
    SodLedger)


# -- basic ledger algebra --------------------------------------------------------


def test_zero_multiplicities_not_stored():
    assert SodLedger({"DC": 0}).multiplicities == {}
    with pytest.raises(ValueError, match="^negative multiplicity -1 for 'DC'$"):
        SodLedger({"DC": -1})


def test_substitute_expands_each_copy():
    led = SodLedger({"DX": 1})
    replacement = SodLedger({"DC": 1, "Dpt": 4})
    assert substitute(led, "DX", replacement) == replacement
    tripled = substitute(SodLedger({"DX": 3, "DC": 1}), "DX", replacement)
    assert tripled == SodLedger({"DC": 4, "Dpt": 12})


def test_substitute_with_empty_replacement_removes():
    led = SodLedger({"DX": 2, "DC": 1})
    assert substitute(led, "DX", SodLedger()) == SodLedger({"DC": 1})
    with pytest.raises(KeyError):
        substitute(led, "missing", SodLedger())


@given(ledgers, ledgers)
def test_additive_invariant_is_linear(a, b):
    values = {"DC": 2, "DSym2C": 12, "Dpt": 1, "DCl0": 3, "DS": 1}
    assert additive_invariant(a + b, values) == \
        additive_invariant(a, values) + additive_invariant(b, values)


def test_additive_invariant_examples():
    assert additive_invariant(SodLedger(), {}) == 0
    assert additive_invariant(SodLedger({"Dpt": 65}), {"Dpt": 1}) == 65
    with pytest.raises(ValueError,
                       match="^no invariant assigned to atom 'DX'$"):
        additive_invariant(SodLedger({"DX": 1}), {})
    # the smallest unassigned name, whatever order normalizing left them in
    with pytest.raises(ValueError, match="^no invariant assigned to atom 'DC'$"):
        additive_invariant(SodLedger({"DZ": 1, "DC": 1}), {"Dpt": 1})


def _comb_outcome(comb_, n, k):
    try:
        return comb_(n, k)
    except ValueError as exc:
        return str(exc)


def test_comb_is_math_comb():
    """``flipcheck.comb``, with which sod and fano count so that no process
    loads ``math``, is ``math.comb`` on every ``n, k`` in [-3, 60]: 0 for
    ``k > n``, and the same ValueError for a negative argument."""
    for n in range(-3, 61):
        for k in range(-3, 61):
            assert (_comb_outcome(flipcheck.comb, n, k)
                    == _comb_outcome(math.comb, n, k)), (n, k)


# -- symmetric squares of component lists -------------------------------------------


def test_sym2_ledger_curve_plus_exceptionals_n5():
    components = two_quadrics_components(5)
    assert components == ["DC", "Dpt", "Dpt", "Dpt", "Dpt"]
    with pytest.raises(ValueError, match="^need n >= 2$"):
        two_quadrics_components(1)
    got = sym2_ledger(components)
    assert got == SodLedger({"DSym2C": 1, "DC": 5, "Dpt": 14})


def test_sym2_ledger_single_exceptional():
    assert sym2_ledger(["Dpt"]) == SodLedger({"Dpt": 2})


def test_sym2_ledger_degree2_surface_count():
    led = sym2_ledger(["Dpt"] * 10)
    assert led == SodLedger({"Dpt": 65})
    assert led.total() == 10 * 9 // 2 + 2 * 10


@pytest.mark.parametrize("m", range(1, 11))
def test_sym2_ledger_m_copies(m):
    led = sym2_ledger(["Dpt"] * m)
    assert led.total() == 2 * m + m * (m - 1) // 2


def test_sym2_ledger_unresolved_pairs():
    with pytest.raises(ValueError, match=r"^no rule for Sym2\(DX\)$"):
        sym2_ledger(["DX"])
    with pytest.raises(ValueError, match=r"^no rule for DC \(x\) DX$"):
        table = default_rules()
        table.add(RewriteRule("sym2", ("DX",), SodLedger({"DX": 2})))
        sym2_ledger(["DC", "DX"], table)


# default_rules() as a list, for the reference functions below
DEFAULT_RULES = [
    RewriteRule("sym2", ("DC",), SodLedger({"DSym2C": 1, "DC": 1})),
    RewriteRule("sym2", ("Dpt",), SodLedger({"Dpt": 2})),
    RewriteRule("tensor", ("DC", "Dpt"), SodLedger({"DC": 1})),
    RewriteRule("tensor", ("Dpt", "Dpt"), SodLedger({"Dpt": 1})),
]


def test_default_rules_list():
    assert RuleTable(DEFAULT_RULES).rules == default_rules().rules


def _rule_map(rules):
    """Reference map from the atom each rule rewrites to its right-hand
    side, built from the rule list: the last rule of a kind for a name wins,
    and atom rules win over sym2 and tensor rules."""
    by_kind = {"atom": {}, "sym2": {}, "tensor": {}}
    for rule in rules:
        if rule.kind == "atom":
            name = rule.args[0]
        elif rule.kind == "sym2":
            name = f"Sym2_{rule.args[0]}"
        else:
            name = "Tensor_{}_{}".format(*sorted(rule.args))
        by_kind[rule.kind][name] = rule.rhs
    return {**by_kind["sym2"], **by_kind["tensor"], **by_kind["atom"]}


def sym2_ledger_pairwise(components, rules=DEFAULT_RULES):
    """Reference: one resolution per copy and per pair i < j, folded with +."""
    rhs_for = _rule_map(rules)

    def resolve(name, what):
        if name not in rhs_for:
            raise ValueError(f"no rule for {what}")
        return rhs_for[name]

    out = SodLedger()
    for i, a in enumerate(components):
        out = out + resolve(f"Sym2_{a}", f"Sym2({a})")
        for b in components[i + 1:]:
            x, y = sorted((a, b))
            out = out + resolve(f"Tensor_{x}_{y}", f"{x} (x) {y}")
    return out


def _outcome(fn, *args):
    """Multiplicities in insertion order, or the unresolved-pair message."""
    try:
        return list(fn(*args).multiplicities.items())
    except ValueError as exc:
        return str(exc)


_EXTRA_NAMES = ["DX", "DY"]


@st.composite
def ledger_rules(draw):
    """Default rules plus random rules for DX, DY: each pair has a rule to
    other atoms, a rule to its own mangled atom, or no rule; an atom rule
    for ``Sym2_DX`` or ``Sym2_DY`` may come before or after its sym2 rule."""
    rules = list(DEFAULT_RULES)
    names = ["DC", "Dpt"] + _EXTRA_NAMES
    for a in _EXTRA_NAMES:
        choice = draw(st.sampled_from(["rule", "mangled", "missing"]))
        if choice == "rule":
            rhs = SodLedger({a: 1, "Dpt": 2})
            rules.append(RewriteRule("sym2", (a,), rhs))
        elif choice == "mangled":
            rhs = SodLedger({f"Sym2_{a}": 1})
            rules.append(RewriteRule("sym2", (a,), rhs))
        if draw(st.booleans()):
            atom_rule = RewriteRule("atom", (f"Sym2_{a}",), SodLedger({"DC": 2}))
            rules.insert(draw(st.integers(0, len(rules))), atom_rule)
    for i, a in enumerate(names):
        for b in names[i:]:
            if (a, b) in (("DC", "Dpt"), ("Dpt", "Dpt")):
                continue
            choice = draw(st.sampled_from(["rule", "mangled", "missing"]))
            if choice == "rule":
                rhs = SodLedger({b: 1, a: 3})
            elif choice == "mangled":
                rhs = SodLedger({tensor_atom_name(a, b): 1})
            else:
                continue
            rules.append(RewriteRule("tensor", (a, b), rhs))
    return rules


component_lists = st.lists(st.sampled_from(["DC", "Dpt", "DX", "DY"]),
                           max_size=12)


@given(component_lists, ledger_rules())
def test_sym2_ledger_matches_pairwise_fold(components, rules):
    assert _outcome(sym2_ledger, components, RuleTable(rules)) == \
        _outcome(sym2_ledger_pairwise, components, rules)


@given(st.lists(st.sampled_from(["DC", "Dpt"]), max_size=40))
def test_sym2_ledger_default_rules_match_pairwise_fold(components):
    assert _outcome(sym2_ledger, components) == \
        _outcome(sym2_ledger_pairwise, components)


@pytest.mark.parametrize("components, first_unresolved", [
    (["DX", "DY", "DX"], "DX (x) DY"),
    (["DX", "DX", "DY"], "DX (x) DX"),
    (["DY", "DX", "DX", "DY"], "DX (x) DY"),
])
def test_sym2_ledger_reports_first_of_two_unresolved_pairs(components,
                                                           first_unresolved):
    rules = [
        RewriteRule("sym2", ("DX",), SodLedger({"Sym2_DX": 1})),
        RewriteRule("sym2", ("DY",), SodLedger({"Sym2_DY": 1})),
        RewriteRule("tensor", ("DY", "DY"), SodLedger({"Tensor_DY_DY": 1})),
    ]
    with pytest.raises(ValueError, match="^no rule for ") as got:
        sym2_ledger(components, RuleTable(rules))
    with pytest.raises(ValueError, match="^no rule for ") as want:
        sym2_ledger_pairwise(components, rules)
    assert str(got.value) == str(want.value)
    assert first_unresolved in str(got.value)


# -- hilbert-square ledgers -----------------------------------------------------------


def test_hilb2_ledger_n5():
    led = hilb2_two_quadrics_ledger(5)
    n = 5
    assert led == SodLedger({
        "DSym2C": 1,
        "DC": 2 * n - 2,
        "Dpt": comb(n - 1, 2) + 2 * (n - 1) + (n - 1) * (n - 2),
    })
    assert led.multiplicities["DC"] == 8 and led.multiplicities["Dpt"] == 26


def test_hilb2_ledger_n3():
    assert hilb2_two_quadrics_ledger(3) == \
        SodLedger({"DSym2C": 1, "DC": 4, "Dpt": 7})


def test_hilb2_ledger_n2_degenerates_to_sym2():
    components = ["Dpt", "Dpt"]
    assert hilb2_ledger(components, 2) == sym2_ledger(components)
    with pytest.raises(ValueError):
        hilb2_ledger(components, 1)


def test_hilb2_closed_form_all_odd_n():
    for n in range(3, 20, 2):
        led = hilb2_two_quadrics_ledger(n)
        assert led.multiplicities["DC"] == 2 * n - 2
        assert led.multiplicities["Dpt"] == \
            comb(n - 1, 2) + 2 * (n - 1) + (n - 1) * (n - 2)


# -- conjecture arithmetic -------------------------------------------------------------


def test_pencil_subtraction_at_n5():
    assert fano_scheme_conjecture_ledger(5) + ogr_pencil_conjecture_ledger(5) \
        == hilb2_two_quadrics_ledger(5)
    assert fano_scheme_conjecture_ledger(5) == \
        SodLedger({"DSym2C": 1, "DC": 2, "Dpt": 2})
    assert ogr_pencil_conjecture_ledger(5) == \
        SodLedger({"DC": 6, "Dpt": 24})


def test_conjecture_consistency_range():
    for n in range(3, 17, 2):
        result = conjecture_consistency(n)
        assert result.in_stated_range == (n >= 5)
        if result.in_stated_range:
            assert result.holds, n
    assert not conjecture_consistency(3).holds  # clamped counts fall short
    with pytest.raises(ValueError):
        conjecture_consistency(4)
    with pytest.raises(ValueError, match="^need n >= 3$"):
        fano_scheme_conjecture_ledger(2)


def test_clifford_template_reduces_to_pencil():
    for n in range(5, 16, 2):
        led = clifford_conjecture_ledger(n)
        led = substitute(led, "DCl0", SodLedger({"DC": 1}))
        led = substitute(led, "DS", SodLedger({"Dpt": 2}))
        assert led == ogr_pencil_conjecture_ledger(n)
    with pytest.raises(ValueError):
        clifford_conjecture_ledger(4)


@pytest.mark.parametrize("n", [5, 7])
def test_hh0_cross_module(n):
    """Additive-invariant evaluation of the ledger equals the Hodge-side
    hh0 of the Hilbert square, with every atom value computed from hodge."""
    g = (n + 1) // 2
    assignment = {
        "Dpt": 1,
        "DC": hodge.hh0(varieties.curve(g)),
        "DSym2C": hodge.hh0(hodge.sym2(varieties.curve(g))),
    }
    assert assignment["DC"] == 2
    assert assignment["DSym2C"] == g * g + 3
    via_ledger = additive_invariant(hilb2_two_quadrics_ledger(n), assignment)
    via_hodge = hodge.hh0(hodge.hilbert_square(
        varieties.intersection_of_two_quadrics(n)))
    assert via_ledger == via_hodge
    if n == 5:
        assert via_ledger == 54


# -- the obstruction -------------------------------------------------------------------


def test_obstruction_quartic_double_solid():
    ambient = hodge.hilbert_square(varieties.builtin("quartic-double-solid"))
    assert embedding_obstruction(222, hodge.hh0(ambient)) == "OBSTRUCTED"


def test_obstruction_degree2_surface():
    assert embedding_obstruction(56, 65) == "INCONCLUSIVE"


def test_obstruction_zero_candidate():
    assert embedding_obstruction(0, 65) == "INCONCLUSIVE"
    with pytest.raises(ValueError, match="^hh0 values must be nonnegative$"):
        embedding_obstruction(-1, 0)


# -- rewrite rules ----------------------------------------------------------------------


def test_rule_table_normalize_applies_sym2_names():
    table = default_rules()
    got = table.normalize(SodLedger({"Sym2_Dpt": 10, "Dpt": 45}))
    assert got == SodLedger({"Dpt": 65})


def test_rule_table_normalize_applies_tensor_names():
    table = default_rules()
    got = table.normalize(SodLedger({"Tensor_DC_Dpt": 3, "Tensor_Dpt_Dpt": 2}))
    assert got == SodLedger({"DC": 3, "Dpt": 2})
    table.add(RewriteRule("atom", ("Tensor_DC_Dpt",), SodLedger({"DS": 1})))
    got = table.normalize(SodLedger({"Tensor_DC_Dpt": 3, "Tensor_Dpt_Dpt": 2}))
    assert got == SodLedger({"DS": 3, "Dpt": 2})


def test_rule_table_ordered_rewriting_terminates():
    table = RuleTable()
    table.add(RewriteRule("atom", ("DB",), SodLedger({"DA": 2})))
    table.add(RewriteRule("atom", ("DA",), SodLedger({"DC": 1, "Dpt": 3})))
    got = table.normalize(SodLedger({"DB": 2, "DA": 1}))
    assert got == SodLedger({"DC": 5, "Dpt": 15})


def test_rule_table_loop_detection():
    table = RuleTable()
    table.add(RewriteRule("atom", ("DA",), SodLedger({"DB": 1})))
    table.add(RewriteRule("atom", ("DB",), SodLedger({"DA": 1})))
    with pytest.raises(ValueError,
                       match="^rewrite rules loop through 'D[AB]'$"):
        table.normalize(SodLedger({"DA": 1}))


def _atom_rules(pairs):
    return [RewriteRule("atom", (lhs,), SodLedger(rhs)) for lhs, rhs in pairs]


def test_normalize_long_chain_terminates():
    """10,001 rules in a chain: deeper than Python's recursion limit."""
    table = RuleTable(_atom_rules((f"A{i}", {f"A{i + 1}": 1})
                                  for i in range(10_001)))
    assert table.normalize(SodLedger({"A0": 3, "B": 1})) == \
        SodLedger({"A10001": 3, "B": 1})


def test_normalize_ladder_doubles_per_level():
    table = RuleTable(_atom_rules(
        (f"{x}_{i}", {f"D_{i + 1}": 1, f"E_{i + 1}": 1})
        for i in range(2000) for x in "DE"))
    assert len(table.rules) == 4000
    assert table.normalize(SodLedger({"D_0": 1})) == \
        SodLedger({"D_2000": 2 ** 1999, "E_2000": 2 ** 1999})


def test_normalize_long_ring_is_a_loop():
    n = 10_001
    table = RuleTable(_atom_rules((f"A{i}", {f"A{(i + 1) % n}": 1})
                                  for i in range(n)))
    with pytest.raises(ValueError,
                       match=r"^rewrite rules loop through 'A\d+'$"):
        table.normalize(SodLedger({"A5": 1}))


_SYM2_DX_RULES = [RewriteRule("sym2", ("DX",), SodLedger({"Dpt": 1})),
                  RewriteRule("atom", ("Sym2_DX",), SodLedger({"Dpt": 5}))]


def test_normalize_atom_rule_wins_over_sym2_rule():
    for rules in (_SYM2_DX_RULES, _SYM2_DX_RULES[::-1]):  # in either order
        table = RuleTable()
        for rule in rules:
            table.add(rule)
        got = table.normalize(SodLedger({"Sym2_DX": 2, "DC": 1}))
        assert got == SodLedger({"Dpt": 10, "DC": 1})


def test_sym2_ledger_atom_rule_wins_as_in_normalize():
    for rules in (_SYM2_DX_RULES, _SYM2_DX_RULES[::-1]):
        table = RuleTable(rules)
        assert sym2_ledger(["DX"], table) == SodLedger({"Dpt": 5}) == \
            table.normalize(SodLedger({"Sym2_DX": 1}))


def test_tensor_names_join_with_underscores():
    """``A_B (*) C`` and ``A (*) B_C`` both rewrite ``Tensor_A_B_C``; the rule
    given last wins, in normalize and in sym2_ledger alike."""
    first = RewriteRule("tensor", ("A_B", "C"), SodLedger({"Dpt": 1}))
    last = RewriteRule("tensor", ("A", "B_C"), SodLedger({"Dpt": 2}))
    table = RuleTable([first, last])
    assert table.rules == {"Tensor_A_B_C": SodLedger({"Dpt": 2})}
    assert table.normalize(SodLedger({"Tensor_A_B_C": 1})) == \
        SodLedger({"Dpt": 2})
    for name in ("A_B", "C"):
        table.add(RewriteRule("sym2", (name,), SodLedger()))
    assert sym2_ledger(["A_B", "C"], table) == SodLedger({"Dpt": 2})


def _normalize_by_min_scan(rules, led, max_steps=10_000):
    """Reference: every step scans the whole ledger for the smallest name
    that has a rule (atom rules win over sym2 and tensor rules for the same
    name), and gives up after ``max_steps`` substitutions."""
    rhs_for = _rule_map(rules)
    current = led
    for _ in range(max_steps):
        target = min((name for name in current.multiplicities
                      if name in rhs_for), default=None)
        if target is None:
            return current
        current = sod.substitute(current, target, rhs_for[target])
    raise ValueError(f"rewriting did not terminate in {max_steps} steps")


def _normal_form_or_loop(fn, *args):
    """The result ledger, or the ``ValueError`` raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def _loop_atom(rules, exc):
    """The atom a loop error names; asserts that the rules rewrite it, by
    one or more steps, back into a ledger that holds it."""
    name = re.fullmatch(r"rewrite rules loop through '(.*)'", str(exc))[1]
    rhs_for = _rule_map(rules)
    seen, todo = set(), [name]
    while todo:
        for k in rhs_for.get(todo.pop(), SodLedger()).multiplicities:
            if k not in seen:
                seen.add(k)
                todo.append(k)
    assert name in seen, f"{name!r} is not on a loop"
    return name


_REWRITE_NAMES = ["DA", "DB", "DC", "Dpt", "Sym2_DA", "Sym2_DB",
                  "Tensor_DA_DB", "Tensor_DB_DB"]


@st.composite
def rewrite_rules(draw):
    """Atom, sym2 and tensor rules over a few names; self-rewrites, 2-cycles
    and atom rules for mangled ``Sym2_*``/``Tensor_*`` names all occur."""
    rules = []
    rhs = st.dictionaries(st.sampled_from(_REWRITE_NAMES), st.integers(1, 3),
                          max_size=3).map(SodLedger)
    bases = st.sampled_from(["DA", "DB", "DC"])
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["atom", "sym2", "tensor"]))
        if kind == "atom":
            args = (draw(st.sampled_from(_REWRITE_NAMES)),)
        elif kind == "sym2":
            args = (draw(bases),)
        else:
            args = (draw(bases), draw(bases))
        rules.append(RewriteRule(kind, args, draw(rhs)))
    return rules


@given(rewrite_rules(),
       st.dictionaries(st.sampled_from(_REWRITE_NAMES), st.integers(1, 5),
                       max_size=5).map(SodLedger))
def test_normalize_matches_min_scan(rules, led):
    got = _normal_form_or_loop(RuleTable(rules).normalize, led)
    want = _normal_form_or_loop(_normalize_by_min_scan, rules, led)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError)
        _loop_atom(rules, got)
    else:
        assert got == want


@pytest.mark.parametrize("rules", [
    [("DA", {"DA": 1})],
    [("DA", {"DA": 1, "Dpt": 2})],
    [("DA", {"DB": 1}), ("DB", {"DA": 1})],
    [("DA", {"DB": 2, "Dpt": 1}), ("DB", {"DA": 1, "DC": 1})],
    [("DC", {"DA": 1}), ("DA", {"DB": 1}), ("DB", {"DA": 1})],
])
def test_normalize_self_rewrite_and_two_cycle_loop(rules):
    rules = _atom_rules(rules)
    led = SodLedger({"DA": 1, "DC": 1})
    assert isinstance(_normal_form_or_loop(_normalize_by_min_scan, rules, led),
                      ValueError)
    with pytest.raises(ValueError, match="^rewrite rules loop through ") as info:
        RuleTable(rules).normalize(led)
    assert _loop_atom(rules, info.value) in ("DA", "DB")


@given(ledgers, ledgers)
def test_substitute_results_are_canonical(led, replacement):
    for name in list(led.multiplicities):
        got = substitute(led, name, replacement)
        assert got.multiplicities == SodLedger(got.multiplicities).multiplicities
        assert all(m > 0 for m in got.multiplicities.values())


def test_ledger_equal_and_json():
    a = SodLedger({"DC": 1, "Dpt": 2})
    assert a == SodLedger({"Dpt": 2, "DC": 1})
    assert a.__eq__(a.multiplicities) is NotImplemented
    assert a.to_json_dict() == {
        "atoms": [{"name": "DC", "mult": 1}, {"name": "Dpt", "mult": 2}]
    }


def test_records_compare_by_value():
    rule = RewriteRule("sym2", ("DC",), SodLedger({"DC": 1, "DSym2C": 1}))
    same = RewriteRule("sym2", ("DC",), SodLedger({"DSym2C": 1, "DC": 1}))
    assert rule == same
    assert rule != RewriteRule("atom", ("DC",), rule.rhs)
    assert conjecture_consistency(5) == conjecture_consistency(5)
