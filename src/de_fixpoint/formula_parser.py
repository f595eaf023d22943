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

The connectives' symbols and precedences come from ``formula._BINARY``
and ``formula._PREFIX``, which the printer reads too.  A formula nested
more than ``syntax.MAX_DEPTH`` levels deep is a ParseError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .formula import _BINARY, _PREFIX, _PREFIX_PREC, Atom, FalseF, Formula, Scope, TrueF
from .props import LocProp, VarProp
from .syntax import Lexicon, Parser, unescape
from .values import FALSE, TRUE, IntVal, StringVal, TimeVal


class _FormulaParser(Parser):
    # Whitespace, then one token.
    lexicon = Lexicon(
        skip=r"\s*",
        token=r"""
          '[A-Za-z_][A-Za-z0-9_]*
        | \d+\.\d+|\d+
        | [A-Za-z_][A-Za-z0-9_]*
        | "(?:\\.|[^"\\\n])*"
        | ->|\[\]|<>|/\\|\\/|[~()|,=.@#:/\-]
        """,
        word="word",
    )
    binary = {symbol: (prec, right, cls) for cls, (symbol, prec, right) in _BINARY.items()}
    prefix = {symbol: cls for cls, symbol in _PREFIX.items()}

    def quoted_name(self, what: str) -> str:
        return self.take("qident", f"{what} (a quoted name like 'X)")[1:]

    def parse_formula(self) -> Formula:
        f = self.climb()
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected {self.tokens[self.pos]!r} after the formula")
        return f

    def primary(self) -> Formula:
        pos = self.pos
        text = self.tokens[pos]
        if text == "True":
            self.pos = pos + 1
            return TrueF()
        if text == "False":
            self.pos = pos + 1
            return FalseF()
        if self.kinds[pos] == "qident":
            return self._path_form()
        self.expected("a formula")

    def _path_form(self) -> Formula:
        path = [self.quoted_name("an actor name")]
        while self.accept("."):
            path.append(self.quoted_name("an actor name"))
        if self.accept("@"):
            return Atom(LocProp(tuple(path), self.quoted_name("a location name")))
        if self.accept("|"):
            return Atom(VarProp(tuple(path), self._assignments()))
        if self.accept(":"):
            self.enter()
            body = self.climb(_PREFIX_PREC)
            self.leave()
            return Scope(tuple(path), body)
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
        negative = self.accept("-")
        tokens, kinds, pos = self.tokens, self.kinds, self.pos
        text, kind = tokens[pos], kinds[pos]
        if kind == "number":
            self.pos = pos + 1
            if "." in text:
                if negative:
                    self.fail("time values are non-negative")
                return TimeVal(self.number(pos, Fraction))
            if tokens[pos + 1] == "/":
                self.pos = pos + 2
                if kinds[pos + 2] != "number" or "." in tokens[pos + 2] or not (denom := self.number(pos + 2)):
                    self.fail("rational values are integer/integer")
                self.pos = pos + 3
                if negative:
                    self.fail("time values are non-negative")
                return TimeVal(Fraction(self.number(pos), denom))
            n = self.number(pos)
            return IntVal(-n if negative else n)
        if negative:
            self.fail("expected a number after '-'")
        if text == "True" or text == "False":
            self.pos = pos + 1
            return TRUE if text == "True" else FALSE
        if kind == "string":
            self.pos = pos + 1
            return StringVal(unescape(text))
        self.expected("a value")

    # Bare propositions (for searches). -------------------------------------

    def parse_prop(self):
        f = self._path_form()
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected {self.tokens[self.pos]!r} after the proposition")
        if not isinstance(f, Atom):
            self.fail("expected a variable or location proposition, not a scoped formula")
        return f.prop


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
