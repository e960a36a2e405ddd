import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcheck.cli import random_value
from flipcheck.dsl import (Atom, EvalError, IntLit, LedgerLiteral, LPow, Node,
                           ParseError, Product, RuleDef, SourceSpan, Sum,
                           Sym2, Tensor, evaluate, parse, parse_ledger,
                           parse_motive, parse_rule, parse_script,
                           print_canonical, tokenize)
from flipcheck.motive import L, ONE, MotiveExpr, atom
from flipcheck.sod import RewriteRule, SodLedger


# -- parsing ---------------------------------------------------------------------


def test_parse_sum_of_l_powers():
    node = parse("1 + L + L^2")
    assert isinstance(node, Sum)
    kinds = [type(term) for _sign, term in node.terms]
    assert kinds == [IntLit, LPow, LPow]
    assert evaluate(node) == ONE + L + L * L


def test_parse_ledger_literal():
    node = parse("{DSym2C:1, DC:8, Dpt:26}")
    assert isinstance(node, LedgerLiteral)
    assert node.entries == (("DSym2C", 1), ("DC", 8), ("Dpt", 26))
    assert evaluate(node) == SodLedger({"DSym2C": 1, "DC": 8, "Dpt": 26})


def test_parse_empty_ledger():
    assert evaluate(parse("{}")) == SodLedger()


def test_parse_rule_forms():
    node = parse("Sym2(DC) => {DSym2C:1, DC:1}")
    assert isinstance(node, RuleDef) and isinstance(node.lhs, Sym2)
    rule = evaluate(node)
    assert rule == RewriteRule("sym2", ("DC",),
                               SodLedger({"DSym2C": 1, "DC": 1}))
    assert parse_rule("DC (*) Dpt => {DC:1}").kind == "tensor"
    assert parse_rule("DX => {}").rhs == SodLedger()


def test_precedence_and_parens():
    assert parse_motive("1 + 2*L^2") == ONE + 2 * L * L
    assert parse_motive("(1 + L) * (1 + L)") == ONE + 2 * L + L * L
    assert parse_motive("2*L^2*C") == 2 * L * L * atom("C")


def test_comments_and_whitespace():
    assert parse_motive("1 +\n  L  # trailing comment\n + L^2") == \
        ONE + L + L * L


def test_sym2_factor_evaluates():
    assert parse_motive("Sym2(1 + L)") == parse_motive("1 + L + L^2")


sum_terms = st.lists(
    st.tuples(st.sampled_from("+-"),
              st.sampled_from(["1", "3", "L", "L^3", "X", "2*Y", "L*X",
                               "Sym2(1 + X)", "(X - X)", "(L - 1)"])),
    min_size=1, max_size=300,
)


def _left_fold(node):
    """Reference: the sum as a left fold of ``+`` and ``-``."""
    total = MotiveExpr()
    for sign, term in node.terms:
        total = total + evaluate(term) if sign > 0 else total - evaluate(term)
    return total


@given(sum_terms)
@settings(max_examples=100)
def test_long_sum_equals_left_fold(terms):
    text = "0 " + " ".join(f"{sign} {term}" for sign, term in terms)
    node = parse(text)
    got = evaluate(node)
    assert got == _left_fold(node)
    _assert_canonical(got)


def _assert_canonical(x):
    """No zero coefficient and only sorted monomial tuples."""
    assert list(x.terms.items()) == \
        list(MotiveExpr(dict(x.terms)).terms.items())
    assert all(list(mono) == sorted(mono) for _, mono in x.terms)


factor_texts = st.sampled_from(["1", "0", "3", "L", "L^2", "X", "Y", "pt",
                                "(X - X)", "(1 + L)", "(Y + X*L)",
                                "Sym2(1 + X)", "(2*Y - L)"])


@given(st.lists(factor_texts, min_size=2, max_size=8))
@settings(max_examples=200)
def test_product_equals_fold_from_one(factors):
    node = parse(" * ".join(factors))
    assert isinstance(node, Product)
    want = ONE
    for factor in node.factors:
        want = want * evaluate(factor)
    got = evaluate(node)
    assert got == want
    _assert_canonical(got)


def test_long_sum_cancellations_leave_no_zero_terms():
    assert parse_motive("X - X").terms == {}
    text = "L + " + " + ".join(["X"] * 1000) + " - L - 1000*X + 2"
    node = parse(text)
    got = evaluate(node)
    assert got == _left_fold(node) == MotiveExpr.const(2)
    assert got.terms == {(0, ()): 2}


def test_tensor_only_in_rules():
    node = parse("DC (*) Dpt")
    assert isinstance(node, Tensor)
    with pytest.raises(EvalError):
        evaluate(node)


def test_duplicate_ledger_entries_merge():
    assert parse_ledger("{DC:1, DC:2}") == SodLedger({"DC": 3})


def test_parse_type_guards():
    with pytest.raises(EvalError):
        parse_motive("{DC:1}")
    with pytest.raises(EvalError):
        parse_ledger("1 + L")
    with pytest.raises(EvalError):
        parse_rule("1 + L")


# -- errors ----------------------------------------------------------------------


def test_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as info:
        parse("1 + ")
    err = info.value
    assert err.span.line == 1 and err.span.column == 5
    assert err.found == "end of input"
    assert any("integer" in e for e in err.expected)


def test_error_on_trailing_garbage():
    with pytest.raises(ParseError, match="end of input"):
        parse("1 + L }")


def test_error_on_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse("1 + $")
    with pytest.raises(ParseError):
        parse("DC => {DC:1}" + "=")


def test_error_line_numbers_multiline():
    with pytest.raises(ParseError) as info:
        parse("1 +\n+ 2")
    assert info.value.span.line == 2
    assert info.value.span.column == 1


def test_error_on_unterminated_ledger():
    with pytest.raises(ParseError):
        parse("{DC:1")
    with pytest.raises(ParseError):
        parse("{DC}")


def test_error_on_empty_input():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("# only a comment\n")


def test_deep_nesting_is_a_parse_error_not_a_crash():
    with pytest.raises(ParseError, match="nesting"):
        parse("(" * 2000 + "1" + ")" * 2000)


def test_spans_are_one_based():
    tokens = tokenize("1 + L")
    assert tokens[0].span.line == 1 and tokens[0].span.column == 1
    assert tokens[2].span.column == 5
    assert tokens[0].span.start == 0 and tokens[0].span.end == 1


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """Reference position: recount the lines from offset 0."""
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


token_texts = st.lists(
    st.sampled_from(["1", "42", "L", "L^2", "X", "Sym2", "DC", "Dpt", "(*)",
                     "=>", "+", "-", "*", "^", "(", ")", "{", "}", ":", ",",
                     " ", "\t", "\r", "\n", "\n\n", "\n  \n", "# note\n",
                     "#x"]),
    max_size=120,
).map("".join)


@given(token_texts)
@settings(max_examples=300)
def test_token_spans_match_recount_from_start(text):
    tokens = tokenize(text)
    assert tokens[-1].kind == "EOF" and tokens[-1].span.start == len(text)
    for tok in tokens:
        assert tok.span.end == tok.span.start + len(tok.text)
        assert (tok.span.line, tok.span.column) == \
            _line_col(text, tok.span.start)


@given(token_texts, st.sampled_from("$?;!@~"))
@settings(max_examples=200)
def test_unexpected_character_span_matches_recount(prefix, bad):
    text = prefix + "\n" + bad + " 1"
    pos = len(prefix) + 1
    with pytest.raises(ParseError) as info:
        tokenize(text)
    line, column = _line_col(text, pos)
    assert info.value.span == SourceSpan(pos, pos + 1, line, column)


def test_token_spans_on_long_lines_and_files():
    text = ("Sym2(X1 + L^2*Y) - 12*(1 + L) # c\r\n\n" * 40
            + " + ".join(f"{i}*A{i}" for i in range(400)))
    tokens = tokenize(text)
    assert len(tokens) == 40 * 18 + 400 * 4
    for tok in tokens:
        assert text[tok.span.start:tok.span.end] == tok.text
        assert (tok.span.line, tok.span.column) == \
            _line_col(text, tok.span.start)


def test_unexpected_character_after_many_lines():
    text = "1 + L  # one\n\n" * 500 + "  X ? 1"
    with pytest.raises(ParseError) as info:
        parse_script(text)
    span = info.value.span
    assert (span.line, span.column) == (1001, 5)
    assert (span.line, span.column) == _line_col(text, span.start)
    assert str(info.value).startswith("line 1001, column 5:")


def _expressions():
    leaves = st.sampled_from(["1", "42", "L", "L^2", "L ^ 10", "X", "Dpt",
                              "Sym2_X", "A (*) B"])
    pieces = st.sampled_from([" + ", "-", " -\n  ", "*", " * ", "\r\n+ "])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, pieces, inner).map("".join),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"( {s}\n)"),
            inner.map(lambda s: f"Sym2({s})"),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_statements = st.one_of(
    _expressions(),
    st.sampled_from(["{}", "{DC:1, Dpt:22}", "{ X : 3 }", "DC => {Dpt:1}",
                     "Sym2(DC) => {DSym2C:1, DC:1}", "DC (*) Dpt => {DC:1}"]),
)
_separators = st.sampled_from(["\n", "\r\n", "  # note (\n", "\n\n\t", "\n#x\n"])
script_texts = st.lists(st.tuples(_statements, _separators), min_size=1,
                        max_size=6).map(
    lambda parts: "".join(s + sep for s, sep in parts))


def _nodes(node):
    yield node
    for name in node._fields:
        value = getattr(node, name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, tuple):  # a (sign, term) pair of a Sum
                item = item[1]
            if isinstance(item, Node):
                yield from _nodes(item)


@given(script_texts)
@settings(max_examples=300)
def test_ast_spans_match_recount_and_cover_parentheses(text):
    nodes = [n for statement in parse_script(text) for n in _nodes(statement)]
    spans = set()
    for node in nodes:
        start, end, line, column = node.span
        assert type(node.span) is SourceSpan
        assert 0 <= start <= end <= len(text)
        assert (line, column) == _line_col(text, start)
        spans.add((start, end))
    # each parenthesised factor is a node from its '(' to the matching ')',
    # and Sym2's node runs from the name to its ')'; parentheses directly
    # around a node widen it, so directly nested pairs give one node
    tokens = tokenize(text)
    match, open_at = {}, []
    for j, tok in enumerate(tokens):
        if tok.kind == "LPAREN":
            open_at.append(j)
        elif tok.kind == "RPAREN":
            match[open_at.pop()] = j

    def after_sym2(j):
        return j > 0 and tokens[j - 1].text == "Sym2"

    for a, b in match.items():
        if after_sym2(a):
            a -= 1
        while match.get(a - 1) == b + 1 and not after_sym2(a - 1):
            a, b = a - 1, b + 1
        assert (tokens[a].span.start, tokens[b].span.end) in spans


# -- scripts ---------------------------------------------------------------------


def test_parse_script_mixed_statements():
    text = """
    # rules first
    Sym2(Dpt) => {Dpt:2}
    {Sym2_Dpt:10, Dpt:45}
    1 + L
    DC (*) Dpt => {DC:1}
    """
    nodes = parse_script(text)
    assert [type(n) for n in nodes] == [RuleDef, LedgerLiteral, Sum, RuleDef]


def test_parse_script_expr_then_rule_not_merged():
    nodes = parse_script("A * B\nC => {Dpt:1}")
    assert [type(n) for n in nodes] == [Product, RuleDef]


def test_parse_script_empty():
    assert parse_script("# nothing here\n") == []


# -- printing ---------------------------------------------------------------------


def test_print_motive_canonical():
    assert print_canonical(ONE + 2 * L + L * L) == "1 + 2*L + L^2"
    assert print_canonical(MotiveExpr()) == "0"
    assert print_canonical(-L) == "0 - L"
    assert print_canonical(atom("C") - ONE) == "0 - 1 + C"


def test_print_ledger_canonical():
    assert print_canonical(SodLedger({"Dpt": 65})) == "{Dpt:65}"
    assert print_canonical(SodLedger()) == "{}"
    assert print_canonical(SodLedger({"Dpt": 1, "DC": 2})) == "{DC:2, Dpt:1}"


def test_print_rule_canonical():
    rule = RewriteRule("sym2", ("DC",), SodLedger({"DSym2C": 1, "DC": 1}))
    assert print_canonical(rule) == "Sym2(DC) => {DC:1, DSym2C:1}"


def test_print_is_construction_order_independent():
    a = ONE + L
    b = L + ONE
    assert print_canonical(a) == print_canonical(b)
    x = SodLedger({"DC": 1}) + SodLedger({"Dpt": 2})
    y = SodLedger({"Dpt": 2}) + SodLedger({"DC": 1})
    assert print_canonical(x) == print_canonical(y)


def test_print_rejects_unknown_types():
    with pytest.raises(TypeError):
        print_canonical(42)


# -- round trips --------------------------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=300)
def test_round_trip_random_values(seed):
    value = random_value(random.Random(seed))
    assert evaluate(parse(print_canonical(value))) == value


def test_round_trip_specific_values():
    for text in ("0", "{}", "1 + 2*L + L^2", "{DC:2, Dpt:1}",
                 "Sym2(DC) => {DC:1, DSym2C:1}", "0 - 1 + C",
                 "DC (*) Dpt => {DC:1}"):
        assert print_canonical(evaluate(parse(text))) == text


# -- fuzzing -----------------------------------------------------------------------


@given(st.binary(max_size=1024))
@settings(max_examples=300)
def test_parser_never_crashes_on_bytes(data):
    try:
        parse(data.decode("utf-8", errors="replace"))
    except ParseError:
        pass


@given(st.text(alphabet="01L^*+-(){}:,=> \nSym2DCpt#", max_size=200))
@settings(max_examples=300)
def test_parser_never_crashes_on_token_soup(text):
    try:
        parse(text)
    except ParseError:
        pass


# -- value records -----------------------------------------------------------------


def test_malformed_span_rejected():
    with pytest.raises(ValueError, match="^malformed span$"):
        SourceSpan(5, 3, 1, 1)
    for args in ((0, 1, 0, 1), (0, 1, 1, 0)):
        with pytest.raises(ValueError, match="^malformed span$"):
            SourceSpan(*args)


def test_spans_and_tokens_compare_and_hash_by_value():
    a, b = tokenize("L + L")[0], tokenize("L")[0]
    assert a == b and hash(a) == hash(b)
    assert a.span == SourceSpan(0, 1, 1, 1)
    assert repr(a.span) == "SourceSpan(start=0, end=1, line=1, column=1)"
    assert tokenize("1")[0] != a


# -- AST shape ---------------------------------------------------------------------

_NODE_TYPES = [Node, IntLit, LPow, Atom, Sym2, Tensor, Sum, Product,
               LedgerLiteral, RuleDef]
CHECKS = Path(__file__).resolve().parent.parent / "checks"


def test_node_classes_are_slotted_with_fields_in_constructor_order():
    assert set(Node.__subclasses__()) == set(_NODE_TYPES[1:])
    for cls in _NODE_TYPES:
        fields = cls._fields
        assert "__slots__" in vars(cls)
        assert fields[0] == "span"
        assert cls.__dataclass_fields__ is fields
        if cls is not Node:
            assert Node.__slots__ + cls.__slots__ == fields
        node = cls(*range(len(fields)))
        assert not hasattr(node, "__dict__")
        assert [getattr(node, name) for name in fields] == list(range(len(fields)))


def _count_nodes(root) -> int:
    """The walk of perfbench's AST-node counter (``dsl.ast_nodes``)."""
    count, todo = 0, [root]
    while todo:
        item = todo.pop()
        if isinstance(item, Node):
            count += 1
            todo.extend(getattr(item, f) for f in item.__dataclass_fields__)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
    return count


@pytest.mark.parametrize("name, count", [
    ("degree2-surface.sod", 6),
    ("flip-derivation.mot", 126),
    ("hilbert-square-classes.mot", 49),
])
def test_ast_node_counts_of_the_check_scripts(name, count):
    statements = parse_script((CHECKS / name).read_text(encoding="utf-8"))
    assert _count_nodes(statements) == count
