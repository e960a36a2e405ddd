"""Text format for motive expressions, ledgers and rewrite rules.

Grammar (one token of lookahead, except a rule's ``lhs``, which is read
up to five tokens ahead to find its ``=>``; ``expr``, ``term`` and
``factor`` are read by one loop with a stack of open groups;
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

from itertools import accumulate, compress
from operator import sub

from .motive import RESERVED_ATOMS, MotiveExpr, TermKey, sym2_class
from .sod import RewriteRule, SodLedger, canonical_text

MAX_NESTING = 200  # expression levels


class ParseError(ValueError):
    """A syntax error at ``offset`` into ``text``, or an evaluation error at
    its statement's start.  Its 1-based ``line`` and ``column`` are worked
    out here, once: only an error needs them."""

    def __init__(self, message: str, text: str, offset: int):
        self.message, self.offset = message, offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"line {self.line}, column {self.column}: {message}")


# -- AST ----------------------------------------------------------------------
# Plain ``__slots__`` classes with identity equality; ``_fields``, built from
# the slots, is ``span`` and then the constructor's other arguments, in
# order.  A span is the ``(start, end)`` pair of offsets into the parsed text.


class Node:
    __slots__ = ("span",)
    # perfbench's AST-node counter walks __dataclass_fields__: keep it _fields
    _fields = __dataclass_fields__ = ("span",)

    def __init_subclass__(cls):
        cls._fields = cls.__dataclass_fields__ = Node.__slots__ + cls.__slots__

    def __init__(self, span: tuple[int, int]):
        self.span = span


class IntLit(Node):
    __slots__ = ("value",)

    def __init__(self, span: tuple[int, int], value: int):
        self.span, self.value = span, value


class LPow(Node):
    __slots__ = ("power",)

    def __init__(self, span: tuple[int, int], power: int):
        self.span, self.power = span, power


class Atom(Node):
    __slots__ = ("name",)

    def __init__(self, span: tuple[int, int], name: str):
        self.span, self.name = span, name


class Sym2(Node):
    __slots__ = ("arg",)

    def __init__(self, span: tuple[int, int], arg: Node):
        self.span, self.arg = span, arg


class Tensor(Node):
    __slots__ = ("left", "right")

    def __init__(self, span: tuple[int, int], left: str, right: str):
        self.span, self.left, self.right = span, left, right


class Sum(Node):
    __slots__ = ("terms",)

    def __init__(self, span: tuple[int, int], terms: tuple[tuple[int, Node], ...]):
        self.span, self.terms = span, terms  # terms: (+1 or -1, node) pairs


class Product(Node):
    __slots__ = ("factors",)

    def __init__(self, span: tuple[int, int], factors: tuple[Node, ...]):
        self.span, self.factors = span, factors


class LedgerLiteral(Node):
    __slots__ = ("entries",)

    def __init__(self, span: tuple[int, int], entries: tuple[tuple[str, int], ...]):
        self.span, self.entries = span, entries


class RuleDef(Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, span: tuple[int, int], lhs: Node, rhs: LedgerLiteral):
        # lhs is an Atom, Sym2(Atom) or Tensor
        self.span, self.lhs, self.rhs = span, lhs, rhs


# -- lexer --------------------------------------------------------------------
# ``str`` methods only, so that script commands never import ``re``.  A NUL
# in the text becomes a character that starts no token, and each comment one
# piece of its length (:func:`_blank_comments`).  ``replace`` then puts a NUL
# on both sides of each operator and whitespace character, before "=" and
# after ">" (so "=>" stays whole), back around "(*)", and one for two in a
# row; ``split("\0")`` returns tokens, whitespace and comments in order.
_WHITESPACE = " \t\r\n"
_OPERATORS = "+-*^(){}:,"
_DIGITS = "0123456789"
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_SEPARATE = (*((c, f"\0{c}\0") for c in _OPERATORS + _WHITESPACE),
             ("=", "\0="), (">", ">\0"), ("\0(\0\0*\0\0)\0", "\0(*)\0"),
             ("\0\0", "\0"))
# the pieces that are whole tokens, or none, whatever the text
_SETTLED = frozenset(["", "(*)", "=>", *_OPERATORS, *_WHITESPACE])
# a token's kind by its first character, none for whitespace and comments;
# "(*)", whose first character is a token of its own, is looked up apart
_KIND = {"=": "ARROW", "+": "PLUS", "-": "MINUS",
         "*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN",
         "{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA",
         **dict.fromkeys(_DIGITS, "INT"), **dict.fromkeys(_LETTERS, "IDENT")}


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
    split = text.replace("\0", "\1")
    if "#" in split:
        split = _blank_comments(split)
    for old, new in _SEPARATE:
        split = split.replace(old, new)
    pieces = split.split("\0")
    del split
    distinct = set(pieces)
    # the pieces that are neither a whole token nor a comment
    words = [p for p in distinct.difference(_SETTLED)
             if not (p.isascii() and (p.isdigit() or p[0] == "#"
                                      or p[0].isalpha()
                                      and p.replace("_", "0").isalnum()))]
    if words:
        pieces = _split_words(text, pieces, words)
        distinct = set(pieces)
    # a kind is looked up once per distinct piece
    kind = {piece: _KIND.get(piece[:1]) for piece in distinct}
    kind["(*)"] = "TENSOR"
    kinds = list(map(kind.__getitem__, pieces))
    del distinct, kind
    # a token ends after every piece up to it: no list of all offsets is built
    ends = list(compress(accumulate(map(len, pieces)), kinds))
    texts = list(compress(pieces, kinds))
    del pieces  # only columns are returned
    kinds = list(filter(None, kinds))
    starts = list(map(sub, ends, map(len, texts)))
    end = len(text)
    kinds.append("EOF")
    texts.append("")
    starts.append(end)
    ends.append(end)
    return Tokens(kinds, texts, starts, ends)


def _blank_comments(text: str) -> str:
    """``text`` with CR as LF and each comment, from ``#`` to the line's end,
    as a NUL and as many ``#``; other lines gain a NUL, which splits nothing."""
    return "\n".join([(line.partition("#")[0] + "\0").ljust(len(line) + 1, "#")
                      for line in text.replace("\r", "\n").split("\n")])


def _split_words(text: str, pieces: list[str], words: list[str]) -> list[str]:
    """``pieces`` with each of ``words`` cut into INT and IDENT tokens
    (``12ab`` into ``12`` and ``ab``), or the error at the first character
    of the text that starts no token."""
    cuts, bad = {}, {}
    for word in words:
        tokens, rest = [], word
        while rest and rest[0] in _LETTERS + _DIGITS:
            tail = rest.lstrip(_DIGITS if rest[0] in _DIGITS
                               else _LETTERS + _DIGITS + "_")
            tokens.append(rest[:len(rest) - len(tail)])
            rest = tail
        if rest:
            bad[word] = len(word) - len(rest)
        cuts[word] = "\0".join(tokens)
    if bad:
        first = next(i for i, piece in enumerate(pieces) if piece in bad)
        pos = sum(map(len, pieces[:first])) + bad[pieces[first]]
        raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
    return "\0".join(map(cuts.get, pieces, pieces)).split("\0")


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        tokens = tokenize(text)
        self.text = text
        # no lookahead reads past the EOF token: ``rule_lhs`` and ``expr``
        # look one further only after a token that is not EOF
        self.kinds, self.texts, self.starts, self.ends = (
            tokens.kinds, tokens.texts, tokens.starts, tokens.ends)
        self.i = 0

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
        """``expr``, ``term`` and ``factor`` in one loop.  Each ``(`` and
        ``Sym2(`` pushes the sum and the product it interrupts, their start
        offsets and its own, and its ``)`` pops them; the stack's height is
        the nesting, the statement's own expression being level 1."""
        kinds, texts, starts, ends = self.kinds, self.texts, self.starts, self.ends
        i = self.i
        stack = []
        expr_start = term_start = starts[i]
        terms, sign, factors = [], 1, []
        while True:
            kind = kinds[i]
            start = starts[i]
            if kind == "IDENT":
                text = texts[i]
                if text == "L":
                    if kinds[i + 1] == "CARET":
                        self.i = i + 2
                        exp = self.expect("INT", "integer exponent")
                        node = LPow((start, ends[exp]), self.integer(exp))
                        i = exp + 1
                    else:
                        node = LPow((start, ends[i]), 1)
                        i += 1
                elif text == "Sym2":
                    self.i = i + 1
                    i = self.expect("LPAREN", "'(' after Sym2")
                    node = None
                elif kinds[i + 1] == "TENSOR":
                    self.i = i + 2
                    right = self.expect("IDENT", "atom after '(*)'")
                    node = Tensor((start, ends[right]), text, texts[right])
                    i = right + 1
                else:
                    node = Atom((start, ends[i]), text)
                    i += 1
            elif kind == "INT":
                node = IntLit((start, ends[i]), self.integer(i))
                i += 1
            elif kind == "LPAREN":
                node = None
            else:
                self.i = i
                raise self.fail(("integer", "'L'", "atom", "Sym2(...)", "'('"))
            if node is None:  # a group opens at ``start``; ``i`` is its "("
                stack.append((terms, sign, factors, expr_start, term_start,
                              start, kind == "IDENT"))
                i += 1
                if len(stack) >= MAX_NESTING:
                    raise ParseError("expression nesting too deep", self.text,
                                     starts[i])
                expr_start = term_start = starts[i]
                terms, sign, factors = [], 1, []
                continue
            # a factor ends: read on to the next one, or close its term, its
            # expression and the groups that end with them
            while True:
                factors.append(node)
                if kinds[i] == "STAR":
                    i += 1
                    break
                terms.append((sign, factors[0] if len(factors) == 1 else
                              Product((term_start, node.span[1]), tuple(factors))))
                kind = kinds[i]
                if kind == "PLUS" or kind == "MINUS":
                    sign = 1 if kind == "PLUS" else -1
                    i += 1
                    term_start, factors = starts[i], []
                    break
                node = terms[0][1] if len(terms) == 1 else Sum(
                    (expr_start, terms[-1][1].span[1]), tuple(terms))
                if not stack:
                    self.i = i
                    return node
                if kind != "RPAREN":
                    self.i = i
                    raise self.fail(("')'",))
                terms, sign, factors, expr_start, term_start, start, is_sym2 = \
                    stack.pop()
                if is_sym2:
                    node = Sym2((start, ends[i]), node)
                else:
                    # the node is new and not shared: widen its span in place
                    node.span = (start, ends[i])
                i += 1

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
        return MotiveExpr.atom(node.name)
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
        raise ValueError("tensor factors only make sense on rule left-hand sides")
    raise ValueError(f"cannot evaluate {type(node).__name__} as an expression")


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
    if isinstance(value, (SodLedger, RewriteRule)):
        return canonical_text(value)
    raise TypeError(f"cannot print {type(value).__name__}")


def _print_order(key: TermKey) -> tuple:
    power, mono = key
    return (mono[0] if mono else "", mono, power)


def _print_motive(x: MotiveExpr) -> str:
    if not x:
        return "0"
    # ordered by (monomial, power); the monomial's first name leads the key,
    # so most comparisons are of two strings, not of two tuples of tuples
    keys = sorted(x.terms, key=_print_order)
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

