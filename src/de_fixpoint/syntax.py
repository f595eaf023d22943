"""The front end the model and formula parsers share.

A grammar subclasses ``Parser`` and supplies its ``Lexicon`` (what may
precede a token, and the tokens), its operator tables and ``primary``,
which parses one leaf of an operator expression.  This module owns the
rest: tokenizing, the cursor over the tokens, string unescaping, source
positions in errors, and one precedence-climbing loop (Pratt, "Top down
operator precedence", 1973) for operator expressions.

The loop also enforces the nesting limit, ``MAX_DEPTH``.  It takes one
Python frame per open parenthesised group or binary right operand and
none per prefix operator, so the parsers stay far from Python's
recursion limit on any input within the limit.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import ParseError

#: The deepest syntax tree the parsers accept.  Every prefix operator,
#: binary operator and parenthesised group is one level.  Deeper input is
#: a ParseError, not a stack overflow here or in the layers that walk
#: formulas and expressions recursively.
MAX_DEPTH = 100

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "\\": "\\", '"': '"'}


class _Kinds(dict):
    """A token's kind by its first character, filled in as characters occur.

    A number starts with a decimal digit (what ``\\d`` matches), a word
    with an ASCII letter or ``_``, a string with ``"``, a quoted name
    with ``'``; the empty token is the end of input, and anything else
    begins an operator.
    """

    def __init__(self, word: str):
        super().__init__({"": "eof", '"': "string", "'": "qident"})
        self.word = word

    def __missing__(self, first):
        # Only first characters of tokens come here, and none is a letter
        # outside ASCII.
        kind = "number" if first.isdecimal() else self.word if first.isalpha() or first == "_" else "op"
        self[first] = kind
        return kind


_FIRST = itemgetter(slice(0, 1))


class Lexicon:
    """One grammar's tokens.

    ``skip`` matches what may precede a token (whitespace, comments) and
    ``token`` one token, as alternatives that each begin with characters
    of their own, so a token's kind follows from its first character;
    ``word`` names the kind of a token that begins with a letter.
    """

    def __init__(self, skip: str, token: str, word: str):
        # Each match is what precedes a token, then the token, or else the
        # rest of the text from a character no token covers, or nothing at
        # the end of the text.
        self.scan = re.compile(rf"(?:{skip})((?:{token})|(?s:.+))?", re.VERBOSE)
        self.token = re.compile(token, re.VERBOSE)
        self.kinds = _Kinds(word)

    def tokenize(self, text: str):
        """The token strings of ``text`` and their kinds, in two lists.

        Both end with the end of input: an empty token of kind ``eof``.
        A character no token covers is a ParseError (an unterminated
        string when it is a quote).
        """
        tokens = self.scan.findall(text)
        while tokens and not tokens[-1]:
            tokens.pop()  # the matches of the text's end
        if tokens and self.token.fullmatch(rest := tokens[-1]) is None:
            line, col = _position(text, len(text) - len(rest))
            if rest[0] == '"':
                raise ParseError(line, col, "unterminated string")
            raise ParseError(line, col, f"unexpected character {rest[0]!r}")
        tokens.append("")
        return tokens, list(map(self.kinds.__getitem__, map(_FIRST, tokens)))

    def offsets(self, text: str) -> list:
        """Each token's offset into ``text``, the end of input's included."""
        return [m.start(1) for m in self.scan.finditer(text) if m.group(1)] + [len(text)]


def _position(text: str, pos: int):
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def unescape(literal: str) -> str:
    """The value of a quoted string token: quotes dropped, escapes resolved."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), literal[1:-1])


class Parser:
    """A cursor over one text's tokens, and the operator loop.

    ``tokens`` holds the token strings (a string token keeps its quotes)
    and ``kinds`` their kinds; ``pos`` indexes both.  Grammars read the
    lists directly on their hot paths.  Source positions are computed
    only for an error, by scanning the text again.

    A subclass sets ``lexicon``, and for ``climb`` the tables ``binary``
    (operator text -> ``(precedence, right-associative, build(left,
    right))``, loosest binding first) and ``prefix`` (operator text ->
    ``build(operand)``), and ``primary``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.kinds = self.lexicon.tokenize(text)
        self.pos = 0
        self.depth = 0  # depth of the syntax tree parsed last
        self.open = 0  # levels entered and not yet left

    def fail(self, message: str, at: int = None):
        """Raise a ParseError at token ``at`` (the next token by default)."""
        offset = self.lexicon.offsets(self.text)[self.pos if at is None else at]
        raise ParseError(*_position(self.text, offset), message)

    def expected(self, what: str):
        """Fail at the next token, saying what should have been there."""
        shown = self.tokens[self.pos] or "end of input"
        self.fail(f"expected {what}, found {shown!r}")

    def accept(self, text: str) -> bool:
        """Step over the next token if it reads ``text``.

        A string token never matches: its text keeps its quotes.
        """
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.expected(repr(text))
        self.pos += 1

    def take(self, kind: str, what: str) -> str:
        """The next token, which must be of ``kind``; ``what`` names it in errors."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.expected(what)
        self.pos = pos + 1
        return self.tokens[pos]

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
        tokens = self.tokens
        wraps = []
        while (wrap := self.prefix.get(tokens[self.pos])) is not None:
            self.pos += 1
            self.enter()
            wraps.append(wrap)
        if tokens[self.pos] == "(":
            self.pos += 1
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
            op = self.binary.get(tokens[self.pos])
            if op is None or op[0] < floor:
                return tree
            prec, right, build = op
            self.pos += 1
            beside = self.depth
            self.enter()
            rhs = self.climb(prec if right else prec + 1)
            self.leave(beside)
            tree = build(tree, rhs)
