"""The front end the model and formula parsers share.

A grammar subclasses ``Parser`` and supplies its token regex (what may
precede a token, then one named group per token kind), its operator
tables and ``primary``, which parses one leaf of an operator expression.
This module owns the rest: tokenizing, the cursor over the tokens, string
unescaping, source positions in errors, and one precedence-climbing loop
(Pratt, "Top down operator precedence", 1973) for operator expressions.

The loop also enforces the nesting limit, ``MAX_DEPTH``.  It takes one
Python frame per open parenthesised group or binary right operand and
none per prefix operator, so the parsers stay far from Python's
recursion limit on any input within the limit.
"""

from __future__ import annotations

import re

from .errors import ParseError

#: The deepest syntax tree the parsers accept.  Every prefix operator,
#: binary operator and parenthesised group is one level.  Deeper input is
#: a ParseError, not a stack overflow here or in the layers that walk
#: formulas and expressions recursively.
MAX_DEPTH = 100

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "\\": "\\", '"': '"'}


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # offset into the source text


def tokenize(text: str, pattern) -> list:
    """Split ``text`` into tokens by ``pattern``.

    ``pattern`` matches what may precede a token (whitespace, comments)
    and then, optionally, one token, a named group per kind, so each
    match yields at most one token.  The scan stops at the first match
    with no token: at the end of the text, or at a character no token
    covers, which is a ParseError (an unterminated string when it is a
    quote).  The list ends with an ``eof`` token.
    """
    # Each scanner match starts where the previous one ended, and the last
    # one ends where the scan stopped.
    matches = list(iter(pattern.scanner(text).match, None))
    end = matches[-1].end()
    if end < len(text):
        line, col = _position(text, end)
        if text[end] == '"':
            raise ParseError(line, col, "unterminated string")
        raise ParseError(line, col, f"unexpected character {text[end]!r}")
    tokens = [Token(kind, m[kind], m.start(kind)) for m in matches if (kind := m.lastgroup)]
    tokens.append(Token("eof", "", end))
    return tokens


def _position(text: str, pos: int):
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def unescape(literal: str) -> str:
    """The value of a quoted string token: quotes dropped, escapes resolved."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), literal[1:-1])


class Parser:
    """A cursor over one text's tokens, and the operator loop.

    A subclass sets ``token_re`` for the tokenizer, and for ``climb``
    the tables ``binary`` (operator text -> ``(precedence,
    right-associative, build(left, right))``, loosest binding first) and
    ``prefix`` (operator text -> ``build(operand)``), and ``primary``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text, self.token_re)
        self.pos = 0
        self.depth = 0  # depth of the syntax tree parsed last
        self.open = 0  # levels entered and not yet left

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token = None):
        tok = tok or self.peek()
        raise ParseError(*_position(self.text, tok.pos), message)

    def expected(self, what: str):
        """Fail at the next token, saying what should have been there."""
        shown = self.peek().text or "end of input"
        self.fail(f"expected {what}, found {shown!r}")

    def accept(self, text: str) -> bool:
        """Step over the next token if it reads ``text``.

        A string token never matches: its text keeps its quotes.
        """
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.tokens[self.pos].text != text:
            self.expected(repr(text))
        return self.next()

    def take(self, kind: str, what: str) -> Token:
        """The next token, which must be of ``kind``; ``what`` names it in errors."""
        if self.tokens[self.pos].kind != kind:
            self.expected(what)
        return self.next()

    def primary(self):
        """Parse a leaf of an operator expression (``depth`` is 0 on entry)."""
        raise NotImplementedError

    # Operator expressions. ---------------------------------------------------

    def enter(self):
        """Open one level of nesting."""
        self.open += 1
        if self.open > MAX_DEPTH:
            self.fail(f"nested more than {MAX_DEPTH} levels deep")

    def leave(self, beside: int = 0):
        """Close a level around the tree just parsed and one ``beside`` deep."""
        self.open -= 1
        self.depth = max(self.depth, beside) + 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nested more than {MAX_DEPTH} levels deep")

    def climb(self, floor: int = 0):
        """Parse ``operand (op operand)*`` over operators binding at least ``floor``.

        An operand is any run of prefix operators before a parenthesised
        expression or a ``primary``.  Operators of equal precedence group
        to the left unless the table marks them right-associative.
        """
        wraps = []
        while (wrap := self.prefix.get(self.tokens[self.pos].text)) is not None:
            self.pos += 1
            self.enter()
            wraps.append(wrap)
        if self.accept("("):
            self.enter()
            tree = self.climb()
            self.leave()
            self.expect(")")
        else:
            self.depth = 0
            tree = self.primary()
        for wrap in reversed(wraps):
            self.leave()
            tree = wrap(tree)
        while True:
            op = self.binary.get(self.tokens[self.pos].text)
            if op is None or op[0] < floor:
                return tree
            prec, right, build = op
            self.pos += 1
            beside = self.depth
            self.enter()
            rhs = self.climb(prec if right else prec + 1)
            self.leave(beside)
            tree = build(tree, rhs)
