"""Parsing of temporal formulas and state propositions.

The surface syntax, loosest binding first:

    f -> g            implication (right-associative)
    f \\/ g            disjunction
    f /\\ g            conjunction
    f U g             until (left-associative)
    ~ f   [] f  <> f  negation, always, eventually
    True  False  (f)
    'A . 'B | ('x = 1, 'y = 3/2)    variable proposition
    'A . 'B @ 'Location             state-machine location proposition
    'A : (f)                        scoping: prefix names in f with A

Names are quoted with a leading apostrophe.  Assignment values are
integers, rationals or decimals (time amounts), True/False, or quoted
strings; a `#` before a numeric value is accepted and ignored.  A
single assignment may omit the parentheses: `'A | 'x = 1`.

A formula nested more than ``util.MAX_DEPTH`` levels deep is a
ParseError (see ``util.NestingLimit``).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Implies,
    Not,
    Or,
    Scope,
    TrueF,
    Until,
)
from .props import LocProp, VarProp
from .util import NestingLimit
from .values import BoolVal, IntVal, StringVal, TimeVal

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<qident>'[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<op>->|\[\]|<>|/\\|\\/|[~()|,=.@#:/\-])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        tok = m.group()
        if kind == "ws":
            line += tok.count("\n")
            col = len(tok) - tok.rfind("\n") if "\n" in tok else col + len(tok)
        else:
            tokens.append(_Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _FormulaParser(NestingLimit):
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token = None):
        tok = tok or self.peek()
        raise ParseError(tok.line, tok.col, message)

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind in ("op", "word") and tok.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        tok = self.peek()
        if tok.kind == "string" or tok.text != text:
            shown = tok.text if tok.text else "end of input"
            self.fail(f"expected {text!r}, found {shown!r}")
        return self.next()

    def quoted_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "qident":
            shown = tok.text if tok.text else "end of input"
            self.fail(f"expected {what} (a quoted name like 'X), found {shown!r}")
        self.next()
        return tok.text[1:]

    # Formula grammar. -----------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self._implies()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after the formula")
        return f

    def _implies(self) -> Formula:
        left = self._or()
        if self.accept("->"):
            return Implies(left, self.nested(self._implies, self.depth))
        return left

    def _or(self) -> Formula:
        f = self._and()
        while self.accept("\\/"):
            f = Or(f, self.nested(self._and, self.depth))
        return f

    def _and(self) -> Formula:
        f = self._until()
        while self.accept("/\\"):
            f = And(f, self.nested(self._until, self.depth))
        return f

    def _until(self) -> Formula:
        f = self._unary()
        while self.accept("U"):
            f = Until(f, self.nested(self._unary, self.depth))
        return f

    def _unary(self) -> Formula:
        if self.accept("~"):
            return Not(self.nested(self._unary))
        if self.accept("[]"):
            return Always(self.nested(self._unary))
        if self.accept("<>"):
            return Eventually(self.nested(self._unary))
        return self._primary()

    def _primary(self) -> Formula:
        self.depth = 0
        tok = self.peek()
        if tok.text == "(" and tok.kind == "op":
            self.next()
            f = self.nested(self._implies)
            self.expect(")")
            return f
        if tok.kind == "word" and tok.text == "True":
            self.next()
            return TrueF()
        if tok.kind == "word" and tok.text == "False":
            self.next()
            return FalseF()
        if tok.kind == "qident":
            return self._path_form()
        shown = tok.text if tok.text else "end of input"
        self.fail(f"expected a formula, found {shown!r}")

    def _path_form(self) -> Formula:
        path = [self.quoted_name("an actor name")]
        while self.accept("."):
            path.append(self.quoted_name("an actor name"))
        if self.accept("@"):
            return Atom(LocProp(tuple(path), self.quoted_name("a location name")))
        if self.accept("|"):
            return Atom(VarProp(tuple(path), self._assignments()))
        if self.accept(":"):
            return Scope(tuple(path), self.nested(self._unary))
        self.fail("expected '|', '@', or ':' after the name")

    def _assignments(self) -> tuple:
        if self.accept("("):
            pairs = [self._assignment()]
            while self.accept(","):
                pairs.append(self._assignment())
            self.expect(")")
            return tuple(pairs)
        return (self._assignment(),)

    def _assignment(self):
        name = self.quoted_name("a variable name")
        self.expect("=")
        return (name, self._value())

    def _value(self):
        self.accept("#")
        tok = self.peek()
        negative = False
        if tok.kind == "op" and tok.text == "-":
            self.next()
            negative = True
            tok = self.peek()
        if tok.kind == "number":
            self.next()
            if "." in tok.text:
                if negative:
                    self.fail("time values are non-negative")
                return TimeVal(Fraction(tok.text))
            if self.peek().text == "/" and self.peek().kind == "op":
                self.next()
                denom = self.peek()
                if denom.kind != "number" or "." in denom.text or int(denom.text) == 0:
                    self.fail("rational values are integer/integer")
                self.next()
                if negative:
                    self.fail("time values are non-negative")
                return TimeVal(Fraction(int(tok.text), int(denom.text)))
            n = int(tok.text)
            return IntVal(-n if negative else n)
        if negative:
            self.fail("expected a number after '-'")
        if tok.kind == "word" and tok.text in ("True", "False"):
            self.next()
            return BoolVal(tok.text == "True")
        if tok.kind == "string":
            self.next()
            return StringVal(_unescape_string(tok.text))
        shown = tok.text if tok.text else "end of input"
        self.fail(f"expected a value, found {shown!r}")

    # Bare propositions (for searches). -------------------------------------

    def parse_prop(self):
        f = self._path_form()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after the proposition")
        if not isinstance(f, Atom):
            self.fail("expected a variable or location proposition, not a scoped formula")
        return f.prop


def _unescape_string(text: str) -> str:
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(body[i], body[i]))
        else:
            out.append(c)
        i += 1
    return "".join(out)


def parse_formula(text: str) -> Formula:
    """Parse a temporal formula."""
    if not text.strip():
        raise ParseError(1, 1, "empty formula")
    return _FormulaParser(text).parse_formula()


def parse_prop(text: str):
    """Parse a bare state proposition (`'A | 'x = 1` or `'A @ 'Loc`)."""
    if not text.strip():
        raise ParseError(1, 1, "empty proposition")
    return _FormulaParser(text).parse_prop()
