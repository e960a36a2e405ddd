import _random
import gc
import hashlib
import random
import re
import sys
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipcheck import dsl
from flipcheck.cli import (_LEDGER_POOL, _check_round_trip, _Draws,
                           random_value)
from flipcheck.dsl import (Atom, IntLit, LedgerLiteral, LPow, Node, ParseError,
                           Product, RuleDef, Sum, Sym2, Tensor, evaluate,
                           parse, parse_script, print_canonical, tokenize)
from flipcheck.motive import ONE, MotiveExpr
from flipcheck.sod import RewriteRule, SodLedger

L = MotiveExpr.lefschetz(1)
atom = MotiveExpr.atom
CHECKS = Path(__file__).resolve().parent.parent / "checks"

# one token as a record, for the assertions below; the lexer itself returns
# four parallel columns and builds no object per token
Token = namedtuple("Token", "kind text start end")


def _tokens(text: str) -> list[Token]:
    """The tokens of ``text``, EOF last, built from the lexer's columns."""
    tokens = tokenize(text)
    return list(map(Token, tokens.kinds, tokens.texts, tokens.starts,
                    tokens.ends))


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
    assert evaluate(parse("DC (*) Dpt => {DC:1}")).kind == "tensor"
    assert evaluate(parse("DX => {}")).rhs == SodLedger()


def test_rule_head_edge_cases():
    """``Sym2`` and ``L`` alone head atom rules; ``Sym2((X))`` is no rule
    head, so its statement ends before the '=>'."""
    for name in ("Sym2", "L"):
        assert evaluate(parse(f"{name} => {{Dpt:1}}")) == \
            RewriteRule("atom", (name,), SodLedger({"Dpt": 1}))
    for parser in (parse, parse_script):
        with pytest.raises(ParseError) as info:
            parser("Sym2((X)) => {Dpt:1}")
        assert (info.value.line, info.value.column) == (1, 11)


def test_precedence_and_parens():
    assert evaluate(parse("1 + 2*L^2")) == ONE + 2 * L * L
    assert evaluate(parse("(1 + L) * (1 + L)")) == ONE + 2 * L + L * L
    assert evaluate(parse("2*L^2*C")) == 2 * L * L * atom("C")


def test_comments_and_whitespace():
    assert evaluate(parse("1 +\n  L  # trailing comment\n + L^2")) == \
        ONE + L + L * L
    # a comment ends at a lone CR as at LF
    assert evaluate(parse("1 +  # c\r L")) == ONE + L


def test_sym2_factor_evaluates():
    assert evaluate(parse("Sym2(1 + L)")) == evaluate(parse("1 + L + L^2"))


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


# the plain factors, each with its own value
_PLAIN_FACTORS = {
    "0": MotiveExpr.const(0), "1": ONE, "2": MotiveExpr.const(2),
    "12345678901234567890": MotiveExpr.const(12345678901234567890),
    "L": L, "L^0": MotiveExpr.lefschetz(0), "L^1": L,
    "L^3": MotiveExpr.lefschetz(3), "X": atom("X"), "Y": atom("Y"),
    "A_1": atom("A_1"), "pt": atom("pt"),
}


@given(st.lists(st.tuples(st.sampled_from("+-"),
                          st.lists(st.sampled_from(sorted(_PLAIN_FACTORS)),
                                   min_size=1, max_size=6)),
                min_size=1, max_size=30))
@settings(max_examples=300)
def test_plain_products_and_sums_equal_the_fold_of_their_factors(terms):
    products = ["*".join(factors) for _sign, factors in terms]
    text = products[0] + "".join(f" {sign} {product}" for (sign, _), product
                                 in zip(terms[1:], products[1:]))
    want = MotiveExpr()
    for k, (sign, factors) in enumerate(terms):
        value = _PLAIN_FACTORS[factors[0]]
        for factor in factors[1:]:
            value = value * _PLAIN_FACTORS[factor]
        want = want - value if k and sign == "-" else want + value
    got = evaluate(parse(text))
    assert got == want
    _assert_canonical(got)


def test_products_keep_the_errors_of_their_factors_in_order():
    span = (0, 1)
    reserved, x = Atom(span, "Sym2"), Atom(span, "X")
    tensor = Tensor(span, "A", "B")
    with pytest.raises(ValueError, match="^'Sym2' is reserved$") as info:
        evaluate(reserved)
    message = str(info.value)
    for node in (Product(span, (IntLit(span, 2), reserved, x)),
                 Sum(span, ((1, x), (-1, Product(span, (x, reserved))))),
                 Product(span, (reserved, tensor))):
        with pytest.raises(ValueError) as info:
            evaluate(node)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="tensor factors"):
        evaluate(Product(span, (x, tensor, reserved)))


def test_long_sum_cancellations_leave_no_zero_terms():
    assert evaluate(parse("X - X")).terms == {}
    text = "L + " + " + ".join(["X"] * 1000) + " - L - 1000*X + 2"
    node = parse(text)
    got = evaluate(node)
    assert got == _left_fold(node) == MotiveExpr.const(2)
    assert got.terms == {(0, ()): 2}


def test_tensor_only_in_rules():
    node = parse("DC (*) Dpt")
    assert isinstance(node, Tensor)
    with pytest.raises(ValueError, match="^tensor factors only make sense on "
                       "rule left-hand sides$"):
        evaluate(node)


def test_duplicate_ledger_entries_merge():
    assert evaluate(parse("{DC:1, DC:2}")) == SodLedger({"DC": 3})


# -- errors ----------------------------------------------------------------------


def test_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as info:
        parse("1 + ")
    err = info.value
    assert err.line == 1 and err.column == 5 and err.offset == 4
    assert str(err) == ("line 1, column 5: expected integer or 'L' or atom "
                        "or Sym2(...) or '('; found 'end of input'")


def test_error_on_trailing_garbage():
    with pytest.raises(ParseError, match="end of input"):
        parse("1 + L }")


def test_error_on_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse("1 + $")
    with pytest.raises(ParseError):
        parse("DC => {DC:1}" + "=")


def test_integers_take_ascii_digits_only():
    # U+0663, an Arabic-Indic three, is a decimal digit to a str \d
    for text, line, column in (("\u0663*X - 3*X", 1, 1),
                               ("Dpt => {Dpt:1}\n{Dpt:\u0663}", 2, 6)):
        with pytest.raises(ParseError) as info:
            parse_script(text)
        assert str(info.value) == \
            f"line {line}, column {column}: unexpected character '\u0663'"


def test_error_line_numbers_multiline():
    with pytest.raises(ParseError) as info:
        parse("1 +\n+ 2")
    assert info.value.line == 2
    assert info.value.column == 1


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


@pytest.mark.parametrize("opener, closer, column", [
    ("(", ")", 201), ("Sym2(", ")", 1001), ("(Sym2(", "))", 601)],
    ids=["paren", "sym2", "mixed"])
def test_nesting_is_refused_at_exactly_200_levels(opener, closer, column):
    repeats = 200 // opener.count("(")
    deepest = opener * repeats + "L" + closer * repeats
    first = opener[:opener.index("(") + 1]
    parse(deepest[len(first):-1])  # one level less parses
    with pytest.raises(ParseError) as info:
        parse("\n" + deepest)
    assert str(info.value) == \
        f"line 2, column {column}: expression nesting too deep"


def test_spans_are_offsets_and_positions_one_based():
    tokens = _tokens("1 + L")
    assert (tokens[0].start, tokens[0].end) == (0, 1)
    assert (tokens[2].start, tokens[2].end) == (4, 5)
    assert parse("1 + L").span == (0, 5)
    with pytest.raises(ParseError) as info:
        parse("$")
    assert (info.value.offset, info.value.line, info.value.column) == (0, 1, 1)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """Reference position: recount the lines from offset 0."""
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


_TOKEN_PIECES = ["1", "42", "L", "L^2", "X", "Sym2", "DC", "Dpt", "(*)",
                 "=>", "+", "-", "*", "^", "(", ")", "{", "}", ":", ",",
                 " ", "\t", "\r", "\n", "\n\n", "\n  \n", "# note\n",
                 "#x"]
token_texts = st.lists(st.sampled_from(_TOKEN_PIECES), max_size=120
                       ).map("".join)
# pieces where a lexer that splits at operators and whitespace can go wrong:
# a NUL, "=" and ">" apart, and "_" where no atom starts.  Only the
# comparison with the reference lexer draws them, since the properties
# above need text that lexes
lexer_texts = st.lists(st.sampled_from(_TOKEN_PIECES + ["\0", "=", ">", "_x"]),
                       max_size=120).map("".join)


_GAP = re.compile(r"(?:[ \t\r\n]+|#[^\r\n]*)*")


def _assert_tokens_tile(text, tokens):
    """Each token is its slice of the text, EOF sits at the end, and only
    whitespace and comments lie between tokens."""
    assert tokens[-1].kind == "EOF" and tokens[-1].start == len(text)
    pos = 0
    for tok in tokens:
        assert _GAP.fullmatch(text, pos, tok.start)
        assert text[tok.start:tok.end] == tok.text
        pos = tok.end


@given(token_texts)
@settings(max_examples=300)
def test_token_spans_match_recount_from_start(text):
    _assert_tokens_tile(text, _tokens(text))


@given(token_texts, st.sampled_from("$?;!@~"))
@settings(max_examples=200)
def test_unexpected_character_span_matches_recount(prefix, bad):
    text = prefix + "\n" + bad + " 1"
    pos = len(prefix) + 1
    with pytest.raises(ParseError) as info:
        tokenize(text)
    err = info.value
    assert (err.offset, err.line, err.column) == (pos, *_line_col(text, pos))


# The lexer as one ``finditer`` over named groups, one ``Token`` per match:
# every character starts a match, so the matches tile the text.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<INT>[0-9]+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<TENSOR>\(\*\))
  | (?P<ARROW>=>)
  | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<CARET>\^)
  | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<LBRACE>\{) | (?P<RBRACE>\})
  | (?P<COLON>:) | (?P<COMMA>,)
  | (?P<SKIP>(?:[ \t\r\n]+|\#[^\r\n]*)+)
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _reference_tokenize(text: str) -> list[Token]:
    """Reference lexer: the tokens of ``text`` and then EOF."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", text,
                             m.start())
        if kind != "SKIP":
            tokens.append(Token(kind, m.group(), m.start(), m.end()))
    tokens.append(Token("EOF", "", len(text), len(text)))
    return tokens


def _assert_matches_the_reference_lexer(text):
    try:
        want = _reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert (str(info.value), info.value.offset) == (str(exc), exc.offset)
        return
    assert len(tokenize(text)) == len(want)
    assert _tokens(text) == want


@given(st.lists(st.one_of(lexer_texts, st.text(max_size=3)), max_size=6)
       .map("".join))
@settings(max_examples=500)
def test_tokens_and_errors_match_the_reference_lexer(text):
    _assert_matches_the_reference_lexer(text)


@pytest.mark.parametrize("text", [
    "12ab", "3_x", "_x", "L 12ab_3", "=", ">", "==>", "=>>", "A =>", "A>",
    "((*)", "(*)*)", "A (*)(*) B", "\0", "1 +\0 L", "\x85", "1 +\xa0L",
    "\x0c", "#a\r#b\n", "#a\r\0", "# (*) =>\nA (*) B", "A => {} # =>",
    "#\0 (*)", "1 #", "X#", "\u0663", "a.b", "\x01",
], ids=repr)
def test_lexer_edge_cases_match_the_reference_lexer(text):
    """Words that hold two tokens or a character that starts none, "=" and
    ">" apart, "(*)" beside parentheses, characters that are whitespace to
    ``str.split`` but not to the grammar, and operators inside comments."""
    _assert_matches_the_reference_lexer(text)


def test_token_spans_on_long_lines_and_files():
    text = ("Sym2(X1 + L^2*Y) - 12*(1 + L) # c\r\n\n" * 40
            + " + ".join(f"{i}*A{i}" for i in range(400)))
    tokens = _tokens(text)
    assert len(tokens) == 40 * 18 + 400 * 4
    _assert_tokens_tile(text, tokens)


def test_lexing_allocates_nothing_per_token():
    """The lexer makes no GC-tracked object per token: with the collector
    off, its count of such allocations stays far below the token count."""
    text = "\n".join(f"{i}*L^2*A{i} - Sym2(X{i}) # note {i}"
                     for i in range(2500))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        tokens = tokenize(text)
        allocated = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(tokens) == 2500 * 12 + 1
    assert allocated < 100


def test_unexpected_character_after_many_lines():
    text = "1 + L  # one\n\n" * 500 + "  X ? 1"
    with pytest.raises(ParseError) as info:
        parse_script(text)
    err = info.value
    assert (err.line, err.column) == (1001, 5)
    assert (err.line, err.column) == _line_col(text, err.offset)
    assert str(err).startswith("line 1001, column 5:")


_error_prefixes = st.lists(
    st.sampled_from(["\r", "\n", "\r\n", " ", "\t", "# note\n", "#x(\r\n",
                     "{Dpt:1}\n", "1 + L\r\n"]),
    max_size=40,
).map("".join)

# each ParseError site, by a phrase of its message, as a statement and the
# offset of its error in it
_ERROR_SITES = {
    "unexpected character": ("1 + $", 4),
    "expected integer": ("1 +\r\n  )", 7),
    "nesting too deep": ("(" * 200 + "1" + ")" * 200, 200),
    "integer literal too long": ("2*" + "1" * 5000, 2),
}


@given(_error_prefixes, st.sampled_from(sorted(_ERROR_SITES)))
@settings(max_examples=200)
def test_error_positions_match_recount_after_any_prefix(prefix, site):
    statement, at = _ERROR_SITES[site]
    text = prefix + statement + "\n"
    pos = len(prefix) + at
    with pytest.raises(ParseError) as info:
        parse_script(text)
    err = info.value
    line, column = _line_col(text, pos)
    assert (err.offset, err.line, err.column) == (pos, line, column)
    assert str(err) == f"line {line}, column {column}: {err.message}"
    assert site in err.message


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
    tokens = _tokens(text)
    starts = {tok.start for tok in tokens}
    ends = {tok.end for tok in tokens}
    spans = set()
    for node in nodes:
        start, end = node.span
        assert type(node.span) is tuple
        # a node runs from the start of a token to the end of a token
        assert 0 <= start < end <= len(text)
        assert start in starts and end in ends
        spans.add(node.span)
    # each parenthesised factor is a node from its '(' to the matching ')',
    # and Sym2's node runs from the name to its ')'; parentheses directly
    # around a node widen it, so directly nested pairs give one node
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
        assert (tokens[a].start, tokens[b].end) in spans


# -- the expression loop against recursive descent ---------------------------------


class _RecursiveParser(dsl._Parser):
    """The parser with expressions read by recursive descent, one method per
    grammar rule, as the expression loop replaced: the reference for its
    nodes, spans, error messages and offsets."""

    def __init__(self, text: str):
        super().__init__(text)
        self.depth = 0

    def expr(self) -> Node:
        kinds = self.kinds
        start = self.starts[self.i]
        self.depth += 1
        if self.depth > dsl.MAX_NESTING:
            raise ParseError("expression nesting too deep", self.text, start)
        try:
            first = self.term()
            kind = kinds[self.i]
            if kind != "PLUS" and kind != "MINUS":
                return first
            terms = [(1, first)]
            while kind == "PLUS" or kind == "MINUS":
                self.i += 1
                terms.append((1 if kind == "PLUS" else -1, self.term()))
                kind = kinds[self.i]
            return Sum((start, terms[-1][1].span[1]), tuple(terms))
        finally:
            self.depth -= 1

    def term(self) -> Node:
        kinds = self.kinds
        start = self.starts[self.i]
        first = self.factor()
        if kinds[self.i] != "STAR":
            return first
        factors = [first]
        while kinds[self.i] == "STAR":
            self.i += 1
            factors.append(self.factor())
        return Product((start, factors[-1].span[1]), tuple(factors))

    def factor(self) -> Node:
        kinds, i = self.kinds, self.i
        kind = kinds[i]
        start = self.starts[i]
        if kind == "IDENT":
            text = self.texts[i]
            self.i = i + 1
            if text == "L":
                if kinds[i + 1] == "CARET":
                    self.i = i + 2
                    exp = self.expect("INT", "integer exponent")
                    return LPow((start, self.ends[exp]), self.integer(exp))
                return LPow((start, self.ends[i]), 1)
            if text == "Sym2":
                self.expect("LPAREN", "'(' after Sym2")
                inner = self.expr()
                close = self.expect("RPAREN", "')'")
                return Sym2((start, self.ends[close]), inner)
            if kinds[i + 1] == "TENSOR":
                self.i = i + 2
                right = self.expect("IDENT", "atom after '(*)'")
                return Tensor((start, self.ends[right]), text, self.texts[right])
            return Atom((start, self.ends[i]), text)
        if kind == "INT":
            self.i = i + 1
            return IntLit((start, self.ends[i]), self.integer(i))
        if kind == "LPAREN":
            self.i = i + 1
            inner = self.expr()
            close = self.expect("RPAREN", "')'")
            inner.span = (start, self.ends[close])
            return inner
        raise self.fail(("integer", "'L'", "atom", "Sym2(...)", "'('"))


def _assert_same_tree(ours, theirs):
    """The same node classes, spans and fields, node for node."""
    assert type(ours) is type(theirs)
    if isinstance(ours, Node):
        for name in ours._fields:
            _assert_same_tree(getattr(ours, name), getattr(theirs, name))
    elif isinstance(ours, (tuple, list)):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            _assert_same_tree(a, b)
    else:
        assert ours == theirs


def _outcome(parser_class, text, whole):
    """The statements of ``text`` (``whole``), or its first statement and
    the index after it; or the ParseError's message and offset."""
    try:
        parser = parser_class(text)
        if whole:
            return parser.script()
        return parser.statement() if parser.peek() != "EOF" else None, parser.i
    except ParseError as exc:
        return str(exc), exc.offset


def _assert_matches_recursive_descent(text):
    """The whole text, and its first statement alone, give the recursive
    reference's nodes, or its error message at its offset."""
    for whole in (True, False):
        _assert_same_tree(_outcome(dsl._Parser, text, whole),
                          _outcome(_RecursiveParser, text, whole))


@given(st.one_of(script_texts, token_texts,
                 st.tuples(_error_prefixes, st.sampled_from(sorted(_ERROR_SITES)))
                 .map(lambda p: p[0] + _ERROR_SITES[p[1]][0]),
                 st.text(alphabet="01L^*+-(){}:,=> \nSym2DCpt#", max_size=200)))
@settings(max_examples=500)
def test_expression_loop_matches_recursive_descent(text):
    """Drawn scripts, token soup and texts with every kind of error parse
    to the nodes, spans, messages and offsets of the recursive parser."""
    _assert_matches_recursive_descent(text)


@pytest.mark.parametrize("opener, closer", [
    ("(", ")"), ("Sym2(", ")"), ("(Sym2(", "))"), ("Sym2((", "))")])
@pytest.mark.parametrize("repeats", [99, 100, 199, 200, 201])
def test_expression_loop_matches_recursive_descent_at_the_nesting_bound(
        opener, closer, repeats):
    for inner in ["L", "1 + L*X", "", "1 +", "A (*)"]:
        for text in [opener * repeats + inner + closer * repeats,
                     "2*" + opener * repeats + inner + closer * (repeats - 1),
                     "\n" + opener * repeats + inner]:
            _assert_matches_recursive_descent(text)


def _generated_scripts(seed: int) -> list:
    """The benchmark's ``scripts`` workload files for ``seed``."""
    sys.path.insert(0, str(CHECKS.parent / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    return [script.text for script in gen.scripts(seed)]


@pytest.mark.parametrize("source", ["checks", "seed 1", "seed 31"])
def test_expression_loop_matches_recursive_descent_on_real_scripts(source):
    if source == "checks":
        texts = [p.read_text(encoding="utf-8") for p in sorted(CHECKS.iterdir())]
    else:
        texts = _generated_scripts(int(source.split()[1]))
    for text in texts:
        _assert_matches_recursive_descent(text)


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


# atom names as text of any kind: empty, NUL, shared prefixes and the names
# that Sym2 makes, so that no join of names can stand in for the monomial
_print_names = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "\0", "a", "a\0", "a\0b", "ab", "b", "Sym2", "Sym2_",
                     "Sym2_a", "Sym2_a_b", "Sym2_Sym2_a"]))
_print_keys = st.lists(
    st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 2**80)),
              st.lists(_print_names, max_size=3).map(tuple)),
    max_size=30, unique=True)


@given(_print_keys)
@settings(max_examples=300)
@example([(0, ("a", "")), (1, ("a\0",)), (2, ("a", "b")), (0, ("a\0b",))])
@example([(0, ()), (1, ("",)), (2, ("", "")), (0, ("\0",))])
def test_print_order_is_monomial_then_power(keys):
    """Canonical printing orders terms by ``(monomial, power)``, whatever the
    atom names; its key leads with the monomial's first name."""
    assert (sorted(keys, key=dsl._print_order)
            == sorted(keys, key=lambda key: (key[1], key[0])))


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


def test_round_trip_check_draws_the_recorded_sample():
    """``verify-all``'s round-trip check draws 200 values from the seed
    20240815.  Their canonical texts hash to what they hashed to when the
    sampler added its terms one ``MotiveExpr`` at a time, so the check still
    tests the same values."""
    rng = random.Random(20240815)
    texts = "".join(print_canonical(random_value(rng)) + "\n"
                    for _ in range(200))
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "3d5bce2ba70124c6785157810cf5d78a0d807a72e5f8e3dd1a193b67e32a1e55")


def _round_trip_one_by_one() -> tuple[list[int], type | None]:
    """The round-trip check as it read each text alone: the failing indices
    and the class of the error it raised, None if it ran to the end.  The
    index of the text that raised ends the failures."""
    rng = _Draws(_random.Random(20240815))
    failures = []
    for i in range(200):
        value = random_value(rng)
        text = dsl.print_canonical(value)
        try:
            back = evaluate(parse(text))
        except ParseError as exc:
            return failures + [i], type(exc)
        if back != value:
            failures.append(i)
    return failures, None


def _round_trip_in_blocks() -> tuple[list[int], type | None]:
    try:
        return _check_round_trip().computed, None
    except ParseError as exc:
        return [], type(exc)


@contextmanager
def _printer_breaking(index: int, suffix: str):
    """``dsl.print_canonical``, with ``suffix`` added to the text of the
    ``index``-th value it prints, counted from 0 from here."""
    printed = []

    def broken(value):
        text = print_canonical(value)
        printed.append(text)
        return text + suffix if len(printed) == index + 1 else text

    with patch.object(dsl, "print_canonical", broken):
        yield


# a wrong value, and a text that runs into the next line
_BREAKS = [" + X", " +"]


@given(st.integers(0, 199), st.sampled_from(_BREAKS))
@example(0, " +")
@example(9, " +")  # value 10 prints "0": only the span's end fails value 9
@example(24, " +")  # the last line of a block: the block ends in "+"
@example(25, " + X")
@example(199, " +")
@settings(max_examples=40, deadline=None)
def test_round_trip_blocks_fail_where_one_by_one_fails(index, suffix):
    """The check parses its texts in blocks of 25 lines; with one text
    broken, it fails wherever reading each text alone fails.  It reports
    the one-by-one check's first failing index first, or raises the error
    class that check raises: a span test keeps a text that is not a whole
    statement alone, or runs into the next line, from passing.  No other
    value fails but the line a broken text runs into."""
    with _printer_breaking(index, suffix):
        failures, error = _round_trip_one_by_one()
    assert failures == [index]
    with _printer_breaking(index, suffix):
        blocked, blocked_error = _round_trip_in_blocks()
    if blocked_error is not None:
        assert blocked_error is error
    else:
        assert blocked and blocked[0] == failures[0]
        assert set(blocked) <= {index, index + 1}


def test_round_trip_blocks_pass_where_one_by_one_passes():
    assert _round_trip_one_by_one() == ([], None)
    report = _check_round_trip()
    assert (report.passed, report.computed, report.inputs) == (
        True, [], {"count": 200})


def test_round_trip_check_peaks_small():
    """The blocks' texts and ASTs, 25 at a time, are all the check holds:
    one call peaks at 150 KB or less under tracemalloc."""
    _check_round_trip()  # imports and caches out of the measured call
    tracemalloc.start()
    try:
        _check_round_trip()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 150 * 1024


@given(st.integers(-2**70, 2**70), st.integers(1, 2**70))
@example(20240815, 99)  # the check's own seed
@settings(max_examples=40)
def test_round_trip_sampler_draws_what_random_draws(seed, width):
    """The round-trip check draws from ``_Draws`` over ``random``'s C core
    so that it need not import ``random``; from one seed, each of its draws
    returns what ``random.Random``'s returns, and both states stay in step."""
    ours, theirs = _Draws(_random.Random(seed)), random.Random(seed)
    for w in (1, 2, 3, 4, 5, 6, 7, 8, 16, 19, 64, 99, 100, 2**31, 2**40 + 5,
              width):
        assert ours.randint(-3, w - 4) == theirs.randint(-3, w - 4)
    for pool in ([7], ["atom", "sym2", "tensor"], _LEDGER_POOL,
                 list(range(-9, 10))):
        assert ours.choice(pool) == theirs.choice(pool)
    for k in range(len(_LEDGER_POOL) + 1):
        assert ours.sample(_LEDGER_POOL, k) == theirs.sample(_LEDGER_POOL, k)
    assert ours.random() == theirs.random()
    assert ([print_canonical(random_value(ours)) for _ in range(500)]
            == [print_canonical(random_value(theirs)) for _ in range(500)])


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


def test_spans_and_tokens_compare_and_hash_by_value():
    a, b = _tokens("L + L")[0], _tokens("L")[0]
    assert a == b and hash(a) == hash(b)
    assert a == Token("IDENT", "L", 0, 1)
    assert _tokens("1")[0] != a
    assert parse("L + L").terms[0][1].span == parse("L").span == (0, 1)


# -- AST shape ---------------------------------------------------------------------

_NODE_TYPES = [Node, IntLit, LPow, Atom, Sym2, Tensor, Sum, Product,
               LedgerLiteral, RuleDef]


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
