"""Text format for motive expressions, ledgers and rewrite rules.

Grammar (recursive descent with one token of lookahead, except a rule's
``lhs``, which is read up to five tokens ahead to find its ``=>``;
precedence ``^`` over ``*`` over ``+``/``-``; whitespace-insensitive; ``#``
starts a comment that runs to the next CR or LF; integers are arbitrary
precision):

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

import re
from itertools import accumulate, compress, islice
from operator import itemgetter

from .motive import RESERVED_ATOMS, MotiveExpr, TermKey, sym2_class
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

# One capture group: ``split`` returns the gaps between tokens at even
# indices and the tokens (comments among them) at odd ones.
_SPLIT_RE = re.compile(r"(#[^\r\n]*|[0-9]+|[A-Za-z][A-Za-z0-9_]*|\(\*\)|=>"
                       r"|[-+*^(){}:,])")
_WHITESPACE = " \t\r\n"
# a token's kind by its text, else by its first character
_KIND = {"(*)": "TENSOR", "=>": "ARROW", "+": "PLUS", "-": "MINUS",
         "*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN",
         "{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA"}
_FIRST_KIND = {"#": "COMMENT",
               **dict.fromkeys("0123456789", "INT"),
               **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                               "abcdefghijklmnopqrstuvwxyz", "IDENT")}


class Tokens:
    """The tokens of a text as four parallel lists, the last entry of each
    the EOF token."""

    __slots__ = ("kinds", "texts", "starts", "ends")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 ends: list[int]):
        self.kinds, self.texts, self.starts, self.ends = kinds, texts, starts, ends

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(text: str) -> Tokens:
    # Whole-list operations only: no tuple or other container per token.
    parts = _SPLIT_RE.split(text)
    if "".join(parts[0::2]).strip(_WHITESPACE):
        raise _unexpected_character(text, parts)
    offsets = list(accumulate(map(len, parts)))  # the end of each part
    texts = parts[1::2]
    starts = offsets[0:-1:2]
    ends = offsets[1::2]
    del parts, offsets  # only the columns are returned: free the rest now
    kinds = list(map(_KIND.get, texts,
                     map(_FIRST_KIND.get, map(itemgetter(0), texts))))
    if "#" in text:  # one column at a time: each is freed as its copy is bound
        keep = list(map("COMMENT".__ne__, kinds))
        texts = list(compress(texts, keep))
        starts = list(compress(starts, keep))
        ends = list(compress(ends, keep))
        kinds = list(compress(kinds, keep))
    end = len(text)
    kinds.append("EOF")
    texts.append("")
    starts.append(end)
    ends.append(end)
    return Tokens(kinds, texts, starts, ends)


def _unexpected_character(text: str, parts: list[str]) -> ParseError:
    """The error at the first character of a gap that is not whitespace."""
    gap_starts = islice(accumulate(map(len, parts), initial=0), 0, None, 2)
    pos = next(start + len(gap) - len(gap.lstrip(_WHITESPACE))
               for start, gap in zip(gap_starts, parts[0::2])
               if gap.strip(_WHITESPACE))
    return ParseError(f"unexpected character {text[pos]!r}", text, pos)


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        tokens = tokenize(text)
        self.text = text
        self.kinds, self.texts, self.starts, self.ends = columns = (
            tokens.kinds, tokens.texts, tokens.starts, tokens.ends)
        # four more EOF tokens make every lookahead of ``rule_lhs`` a plain
        # index
        for column in columns:
            column.extend(column[-1:] * 4)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.kinds[self.i]

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        found = self.texts[self.i] or "end of input"
        return ParseError(f"expected {' or '.join(expected)}; found {found!r}",
                          self.text, self.starts[self.i])

    def expect(self, kind: str, what: str) -> int:
        """The index of the next token, which must be of ``kind``."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.fail((what,))
        self.i = i + 1
        return i

    def integer(self, i: int) -> int:
        text = self.texts[i]
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(f"integer literal too long ({len(text)} "
                             f"digits)", self.text, self.starts[i]) from None

    # statements ---------------------------------------------------------

    def statement(self) -> Node:
        if self.peek() == "LBRACE":
            return self.ledger()
        lhs = self.rule_lhs()
        if lhs is None:
            return self.expr()
        rhs = self.ledger()
        return RuleDef((lhs.span[0], rhs.span[1]), lhs, rhs)

    def script(self) -> list[Node]:
        out = []
        while self.peek() != "EOF":
            out.append(self.statement())
        return out

    # expressions ----------------------------------------------------------

    def expr(self) -> Node:
        # the one place nesting is counted: every "(" and "Sym2(" opens an expr
        kinds = self.kinds
        start = self.starts[self.i]
        self.depth += 1
        if self.depth > MAX_NESTING:
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
            # the node is new and not shared: widen its span in place
            inner.span = (start, self.ends[close])
            return inner
        raise self.fail(("integer", "'L'", "atom", "Sym2(...)", "'('"))

    # ledgers and rules ---------------------------------------------------

    def ledger(self) -> LedgerLiteral:
        open_ = self.expect("LBRACE", "'{'")
        entries: list[tuple[str, int]] = []
        if self.peek() != "RBRACE":
            while True:
                name = self.expect("IDENT", "atom name")
                self.expect("COLON", "':'")
                count = self.expect("INT", "multiplicity")
                entries.append((self.texts[name], self.integer(count)))
                if self.peek() == "COMMA":
                    self.i += 1
                    continue
                break
        close = self.expect("RBRACE", "'}' or ','")
        return LedgerLiteral((self.starts[open_], self.ends[close]),
                             tuple(entries))

    def rule_lhs(self) -> Node | None:
        """A rule head through its '=>': ``A``, ``A (*) B`` or ``Sym2(A)``.
        Returns None and consumes nothing on any other shape, so that an
        expression statement followed by a rule is never misread as one
        long rule."""
        kinds, texts, starts, ends = self.kinds, self.texts, self.starts, self.ends
        i = self.i
        if kinds[i] != "IDENT":
            return None
        second = kinds[i + 1]
        if second == "ARROW":
            self.i = i + 2
            return Atom((starts[i], ends[i]), texts[i])
        if second == "TENSOR":
            if kinds[i + 2] != "IDENT" or kinds[i + 3] != "ARROW":
                return None
            self.i = i + 4
            return Tensor((starts[i], ends[i + 2]), texts[i], texts[i + 2])
        if (second != "LPAREN" or texts[i] != "Sym2" or kinds[i + 2] != "IDENT"
                or kinds[i + 3] != "RPAREN" or kinds[i + 4] != "ARROW"):
            return None
        self.i = i + 5
        return Sym2((starts[i], ends[i + 3]),
                    Atom((starts[i + 2], ends[i + 2]), texts[i + 2]))


def parse(text: str) -> Node:
    """Parse a single statement (expr, ledger or rule), requiring the whole
    input to be consumed."""
    parser = _Parser(text)
    if parser.peek() == "EOF":
        raise parser.fail(("statement",))
    node = parser.statement()
    if parser.peek() != "EOF":
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
        get = total.get
        for sign, term in node.terms:
            plain = _plain_term(term.factors if type(term) is Product
                                else (term,))
            items = (plain,) if plain else _eval_expr(term).terms.items()
            for key, c in items:
                total[key] = get(key, 0) + sign * c
        return MotiveExpr._trusted(total)
    if isinstance(node, Product):
        plain = _plain_term(node.factors)
        if plain is not None:
            key, c = plain
            return MotiveExpr._trusted({key: c})
        factors = iter(node.factors)
        out = _eval_expr(next(factors))
        for factor in factors:
            out = out * _eval_expr(factor)
        return out
    if isinstance(node, Tensor):
        raise EvalError("tensor factors only make sense on rule left-hand sides")
    raise EvalError(f"cannot evaluate {type(node).__name__} as an expression")


def _plain_term(factors) -> tuple[TermKey, int] | None:
    """A product of integers, powers of L and atoms other than the reserved
    ones as one ``(key, coefficient)`` term; ``pt`` is the unit.  None if
    any other factor is present: the caller folds such a product factor by
    factor, which raises each factor's error in order."""
    coeff, power, names = 1, 0, []
    for factor in factors:
        cls = type(factor)
        if cls is Atom:
            name = factor.name
            if name in RESERVED_ATOMS:
                return None
            if name != "pt":
                names.append(name)
        elif cls is IntLit:
            coeff *= factor.value
        elif cls is LPow:
            power += factor.power
        else:
            return None
    names.sort()
    return (power, tuple(names)), coeff


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
