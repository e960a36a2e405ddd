"""Text format for motive expressions, ledgers and rewrite rules.

Grammar (LL(1) recursive descent, single-token lookahead; precedence
``^`` over ``*`` over ``+``/``-``; whitespace-insensitive; ``#`` starts a
line comment; integers are arbitrary precision):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := INT
             | 'L' ('^' INT)?
             | ATOM
             | 'Sym2' '(' expr ')'
             | ATOM '(*)' ATOM
             | '(' expr ')'
    ledger  := '{' (ATOM ':' INT (',' ATOM ':' INT)*)? '}'
    rule    := lhs '=>' ledger
    lhs     := ATOM | 'Sym2' '(' ATOM ')' | ATOM '(*)' ATOM
    ATOM    := [A-Za-z][A-Za-z0-9_]*
    INT     := [0-9]+

A *statement* is an expr, a ledger or a rule; script files are sequences of
statements (``.mot`` for expression check lists, ``.sod`` for ledger/rule
scripts).  Canonical printing sorts everything, so printing is independent
of construction history and ``parse(print(v))`` returns an equal value.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .motive import MotiveExpr, TermKey, sym2_class
from .sod import RewriteRule, SodLedger

MAX_NESTING = 200  # expression levels


class ParseError(ValueError):
    """A syntax error at ``offset`` into ``text``.  Its 1-based ``line`` and
    ``column`` are worked out here, once: only an error needs them."""

    def __init__(self, message: str, text: str, offset: int):
        self.message, self.offset = message, offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"line {self.line}, column {self.column}: {message}")


# -- AST ----------------------------------------------------------------------
# Plain ``__slots__`` classes with identity equality; ``_fields`` is ``span``
# and then the constructor's other arguments, in order.  A span is the
# ``(start, end)`` pair of offsets into the parsed text.


class Node:
    __slots__ = ("span",)
    # perfbench's AST-node counter walks __dataclass_fields__: keep it _fields
    _fields = __dataclass_fields__ = ("span",)

    def __init__(self, span: tuple[int, int]):
        self.span = span


class IntLit(Node):
    __slots__ = ("value",)
    _fields = __dataclass_fields__ = ("span", "value")

    def __init__(self, span: tuple[int, int], value: int):
        self.span, self.value = span, value


class LPow(Node):
    __slots__ = ("power",)
    _fields = __dataclass_fields__ = ("span", "power")

    def __init__(self, span: tuple[int, int], power: int):
        self.span, self.power = span, power


class Atom(Node):
    __slots__ = ("name",)
    _fields = __dataclass_fields__ = ("span", "name")

    def __init__(self, span: tuple[int, int], name: str):
        self.span, self.name = span, name


class Sym2(Node):
    __slots__ = ("arg",)
    _fields = __dataclass_fields__ = ("span", "arg")

    def __init__(self, span: tuple[int, int], arg: Node):
        self.span, self.arg = span, arg


class Tensor(Node):
    __slots__ = ("left", "right")
    _fields = __dataclass_fields__ = ("span", "left", "right")

    def __init__(self, span: tuple[int, int], left: str, right: str):
        self.span, self.left, self.right = span, left, right


class Sum(Node):
    __slots__ = ("terms",)
    _fields = __dataclass_fields__ = ("span", "terms")

    def __init__(self, span: tuple[int, int], terms: tuple[tuple[int, Node], ...]):
        self.span, self.terms = span, terms  # terms: (+1 or -1, node) pairs


class Product(Node):
    __slots__ = ("factors",)
    _fields = __dataclass_fields__ = ("span", "factors")

    def __init__(self, span: tuple[int, int], factors: tuple[Node, ...]):
        self.span, self.factors = span, factors


class LedgerLiteral(Node):
    __slots__ = ("entries",)
    _fields = __dataclass_fields__ = ("span", "entries")

    def __init__(self, span: tuple[int, int], entries: tuple[tuple[str, int], ...]):
        self.span, self.entries = span, entries


class RuleDef(Node):
    __slots__ = ("lhs", "rhs")
    _fields = __dataclass_fields__ = ("span", "lhs", "rhs")

    def __init__(self, span: tuple[int, int], lhs: Node, rhs: LedgerLiteral):
        # lhs is an Atom, Sym2(Atom) or Tensor
        self.span, self.lhs, self.rhs = span, lhs, rhs


# -- lexer --------------------------------------------------------------------

_TOKEN_RE = re.compile(
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
# token kind by group number; every group above is one alternative
_KINDS = sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get)
_KINDS.insert(0, "")
_SKIP = _TOKEN_RE.groupindex["SKIP"]


Token = namedtuple("Token", "kind text start end")


def tokenize(text: str) -> list[Token]:
    # Every character starts a match (BAD catches the rest), so the matches
    # tile the text and each one starts where the previous one ended.  That
    # end is reused as the next start, one int object for both.  Tokens are
    # built by ``tuple.__new__``, skipping the namedtuple's Python ``__new__``.
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    kinds = _KINDS
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        end = m.end()
        i = m.lastindex
        if i < _SKIP:
            append(new(Token, (kinds[i], m.group(), pos, end)))
        elif i > _SKIP:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        pos = end
    append(Token("EOF", "", pos, pos))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        tokens = tokenize(text)
        # four more EOF tokens make every lookahead of ``rule_lhs`` a plain
        # index
        tokens.extend(tokens[-1:] * 4)
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        found = tok.text or "end of input"
        return ParseError(f"expected {' or '.join(expected)}; found {found!r}",
                          self.text, tok.start)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise self.fail((what,))
        self.i += 1
        return tok

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(f"integer literal too long ({len(tok.text)} "
                             f"digits)", self.text, tok.start) from None

    # statements ---------------------------------------------------------

    def statement(self) -> Node:
        if self.peek().kind == "LBRACE":
            return self.ledger()
        lhs = self.rule_lhs()
        if lhs is None:
            return self.expr()
        rhs = self.ledger()
        return RuleDef((lhs.span[0], rhs.span[1]), lhs, rhs)

    def script(self) -> list[Node]:
        out = []
        while self.peek().kind != "EOF":
            out.append(self.statement())
        return out

    # expressions ----------------------------------------------------------

    def expr(self) -> Node:
        # the one place nesting is counted: every "(" and "Sym2(" opens an expr
        toks = self.tokens
        start = toks[self.i].start
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nesting too deep", self.text, start)
        try:
            first = self.term()
            kind = toks[self.i].kind
            if kind != "PLUS" and kind != "MINUS":
                return first
            terms = [(1, first)]
            while kind == "PLUS" or kind == "MINUS":
                self.i += 1
                terms.append((1 if kind == "PLUS" else -1, self.term()))
                kind = toks[self.i].kind
            return Sum((start, terms[-1][1].span[1]), tuple(terms))
        finally:
            self.depth -= 1

    def term(self) -> Node:
        toks = self.tokens
        start = toks[self.i].start
        first = self.factor()
        if toks[self.i].kind != "STAR":
            return first
        factors = [first]
        while toks[self.i].kind == "STAR":
            self.i += 1
            factors.append(self.factor())
        return Product((start, factors[-1].span[1]), tuple(factors))

    def factor(self) -> Node:
        toks = self.tokens
        tok = toks[self.i]
        kind = tok.kind
        if kind == "IDENT":
            text = tok.text
            self.i += 1
            if text == "L":
                if toks[self.i].kind == "CARET":
                    self.i += 1
                    exp = self.expect("INT", "integer exponent")
                    return LPow((tok.start, exp.end), self.integer(exp))
                return LPow((tok.start, tok.end), 1)
            if text == "Sym2":
                self.expect("LPAREN", "'(' after Sym2")
                inner = self.expr()
                close = self.expect("RPAREN", "')'")
                return Sym2((tok.start, close.end), inner)
            if toks[self.i].kind == "TENSOR":
                self.i += 1
                right = self.expect("IDENT", "atom after '(*)'")
                return Tensor((tok.start, right.end), text, right.text)
            return Atom((tok.start, tok.end), text)
        if kind == "INT":
            self.i += 1
            return IntLit((tok.start, tok.end), self.integer(tok))
        if kind == "LPAREN":
            self.i += 1
            inner = self.expr()
            close = self.expect("RPAREN", "')'")
            # the node is new and not shared: widen its span in place
            inner.span = (tok.start, close.end)
            return inner
        raise self.fail(("integer", "'L'", "atom", "Sym2(...)", "'('"))

    # ledgers and rules ---------------------------------------------------

    def ledger(self) -> LedgerLiteral:
        open_ = self.expect("LBRACE", "'{'")
        entries: list[tuple[str, int]] = []
        if self.peek().kind != "RBRACE":
            while True:
                name = self.expect("IDENT", "atom name")
                self.expect("COLON", "':'")
                count = self.expect("INT", "multiplicity")
                entries.append((name.text, self.integer(count)))
                if self.peek().kind == "COMMA":
                    self.i += 1
                    continue
                break
        close = self.expect("RBRACE", "'}' or ','")
        return LedgerLiteral((open_.start, close.end), tuple(entries))

    def rule_lhs(self) -> Node | None:
        """A rule head through its '=>': ``A``, ``A (*) B`` or ``Sym2(A)``.
        Returns None and consumes nothing on any other shape, so that an
        expression statement followed by a rule is never misread as one
        long rule."""
        toks, i = self.tokens, self.i
        tok = toks[i]
        if tok.kind != "IDENT":
            return None
        second = toks[i + 1].kind
        if second == "ARROW":
            self.i = i + 2
            return Atom((tok.start, tok.end), tok.text)
        if second == "TENSOR":
            right = toks[i + 2]
            if right.kind != "IDENT" or toks[i + 3].kind != "ARROW":
                return None
            self.i = i + 4
            return Tensor((tok.start, right.end), tok.text, right.text)
        inner, close = toks[i + 2], toks[i + 3]
        if (second != "LPAREN" or tok.text != "Sym2" or inner.kind != "IDENT"
                or close.kind != "RPAREN" or toks[i + 4].kind != "ARROW"):
            return None
        self.i = i + 5
        return Sym2((tok.start, close.end),
                    Atom((inner.start, inner.end), inner.text))


def parse(text: str) -> Node:
    """Parse a single statement (expr, ledger or rule), requiring the whole
    input to be consumed."""
    parser = _Parser(text)
    if parser.peek().kind == "EOF":
        raise parser.fail(("statement",))
    node = parser.statement()
    if parser.peek().kind != "EOF":
        raise parser.fail(("end of input",))
    return node


def parse_script(text: str) -> list[Node]:
    """Parse a file as a sequence of statements."""
    return _Parser(text).script()


# -- evaluation ---------------------------------------------------------------


class EvalError(ValueError):
    pass


Value = MotiveExpr | SodLedger | RewriteRule


def evaluate(node: Node) -> Value:
    """Evaluate an AST to a motive expression, a ledger or a rewrite rule."""
    if isinstance(node, LedgerLiteral):
        merged: dict[str, int] = {}
        for name, count in node.entries:
            merged[name] = merged.get(name, 0) + count
        return SodLedger(merged)
    if isinstance(node, RuleDef):
        rhs = evaluate(node.rhs)
        assert isinstance(rhs, SodLedger)
        lhs = node.lhs
        if isinstance(lhs, Atom):
            return RewriteRule("atom", (lhs.name,), rhs)
        if isinstance(lhs, Sym2):
            assert isinstance(lhs.arg, Atom)
            return RewriteRule("sym2", (lhs.arg.name,), rhs)
        assert isinstance(lhs, Tensor)
        return RewriteRule("tensor", (lhs.left, lhs.right), rhs)
    return _eval_expr(node)


def _eval_expr(node: Node) -> MotiveExpr:
    if isinstance(node, IntLit):
        return MotiveExpr.const(node.value)
    if isinstance(node, LPow):
        return MotiveExpr.lefschetz(node.power)
    if isinstance(node, Atom):
        try:
            return MotiveExpr.atom(node.name)
        except ValueError as exc:
            raise EvalError(str(exc))
    if isinstance(node, Sym2):
        return sym2_class(_eval_expr(node.arg))
    if isinstance(node, Sum):
        total: dict[TermKey, int] = {}
        for sign, term in node.terms:
            for key, c in _eval_expr(term).terms.items():
                total[key] = total.get(key, 0) + sign * c
        return MotiveExpr._trusted(total)
    if isinstance(node, Product):
        factors = iter(node.factors)
        out = _eval_expr(next(factors))
        for factor in factors:
            out = out * _eval_expr(factor)
        return out
    if isinstance(node, Tensor):
        raise EvalError("tensor factors only make sense on rule left-hand sides")
    raise EvalError(f"cannot evaluate {type(node).__name__} as an expression")


# -- canonical printing -------------------------------------------------------


def print_canonical(value) -> str:
    """Deterministic text form; parse(print(v)) evaluates back to v."""
    if isinstance(value, MotiveExpr):
        return _print_motive(value)
    if isinstance(value, SodLedger):
        return _print_ledger(value)
    if isinstance(value, RewriteRule):
        return _print_rule(value)
    raise TypeError(f"cannot print {type(value).__name__}")


def _print_motive(x: MotiveExpr) -> str:
    if x.is_zero():
        return "0"
    keys = sorted(x.terms, key=lambda key: (key[1], key[0]))
    out = []
    for idx, (lp, mono) in enumerate(keys):
        coeff = x.terms[(lp, mono)]
        magnitude = abs(coeff)
        pieces = []
        if magnitude != 1 or (lp == 0 and not mono):
            pieces.append(str(magnitude))
        if lp == 1:
            pieces.append("L")
        elif lp >= 2:
            pieces.append(f"L^{lp}")
        pieces.extend(mono)
        text = "*".join(pieces)
        if idx == 0:
            # the grammar has no unary minus: anchor at an explicit zero
            out.append(f"0 - {text}" if coeff < 0 else text)
        else:
            out.append(f"{'-' if coeff < 0 else '+'} {text}")
    return " ".join(out)


def _print_ledger(led: SodLedger) -> str:
    inner = ", ".join(
        f"{name}:{m}" for name, m in sorted(led.multiplicities.items())
    )
    return "{" + inner + "}"


def _print_rule(rule: RewriteRule) -> str:
    if rule.kind == "atom":
        lhs = rule.args[0]
    elif rule.kind == "sym2":
        lhs = f"Sym2({rule.args[0]})"
    else:
        lhs = f"{rule.args[0]} (*) {rule.args[1]}"
    return f"{lhs} => {_print_ledger(rule.rhs)}"
