"""Reference parsers: the model and formula grammars over ``Token`` objects.

This is the front end as it was before the parsers moved to plain token
strings with positions computed on demand: a ``Token`` per token with
its kind, text and offset, and a cursor of ``peek``, ``next``,
``accept``, ``expect`` and ``take`` calls.  ``test_parser_ref.py``
checks that ``parser.parse_model``, ``formula_parser.parse_formula`` and
``parse_prop`` give the same tree, or the same ParseError line, column
and message, on every input it draws.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

from de_fixpoint.errors import ParseError
from de_fixpoint.expr import _PRECEDENCE, Binary, Expr, IsPresent, Lit, PortValue, Unary, Var
from de_fixpoint.formula import _BINARY, _PREFIX, _PREFIX_PREC, Atom, FalseF, Formula, Scope, TrueF
from de_fixpoint.model import (
    CLOCK,
    COMPOSITE,
    DELAY,
    FSM,
    IN,
    MODAL,
    OUT,
    PARENT,
    SETVAR,
    ActorNode,
    Connection,
    Port,
    PortRef,
    Transition,
)
from de_fixpoint.props import LocProp, VarProp
from de_fixpoint.values import BoolVal, IntVal, StringVal, TimeVal

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


# The model grammar. ----------------------------------------------------------

_KINDS = {
    "clock": CLOCK,
    "delay": DELAY,
    "fsm": FSM,
    "setvar": SETVAR,
    "composite": COMPOSITE,
    "modal": MODAL,
}

_FIXED_PORTS = {
    CLOCK: (Port("output", OUT),),
    DELAY: (Port("input", IN), Port("output", OUT)),
    SETVAR: (Port("input", IN),),
}


class _ModelParser(Parser):
    # Whitespace and `//` comments, then one token.
    token_re = re.compile(
        r"""
        [ \t\r\n]* (?://[^\n]*[ \t\r\n]*)*
        (?:
          (?P<number>\d+\.\d+|\d+)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<string>"(?:\\.|[^"\\\n])*")
        | (?P<op>->|==|!=|<=|>=|&&|\|\||[{}(),.=<>+\-*!/])
        )?
        """,
        re.VERBOSE,
    )
    binary = {op: (prec, False, partial(Binary, op)) for op, prec in _PRECEDENCE.items()}
    prefix = {op: partial(Unary, op) for op in ("!", "-")}

    def expected(self, what: str):
        # '/' is a token only for rational literals, so finding it anywhere
        # else (`n / 2`) means a division the language does not have.
        if self.peek().text == "/":
            self.fail("'/' only forms rational literals like 3/2")
        super().expected(what)

    # Literals. ----------------------------------------------------------

    def parse_literal(self):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            num = self.peek()
            if num.kind != "number" or "." in num.text:
                self.fail("only integer literals may be negative")
            self.next()
            return IntVal(-int(num.text))
        if tok.kind == "number":
            self.next()
            if "." in tok.text:
                return TimeVal(Fraction(tok.text))
            if self.peek().text == "/" and self.tokens[self.pos + 1].kind == "number":
                self.next()
                denom = self.next()
                if "." in denom.text or int(denom.text) == 0:
                    self.fail("rational literals are integer/integer", denom)
                return TimeVal(Fraction(int(tok.text), int(denom.text)))
            return IntVal(int(tok.text))
        if tok.text == "true":
            self.next()
            return BoolVal(True)
        if tok.text == "false":
            self.next()
            return BoolVal(False)
        if tok.kind == "string":
            self.next()
            return StringVal(unescape(tok.text))
        self.expected("a literal")

    # Expressions. --------------------------------------------------------

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("number", "string") or tok.text in ("true", "false"):
            return Lit(self.parse_literal())
        if tok.text in ("isPresent", "value"):
            self.next()
            self.expect("(")
            port = self.take("ident", "a port name").text
            self.expect(")")
            return IsPresent(port) if tok.text == "isPresent" else PortValue(port)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        self.expected("an expression")

    # The model grammar. ------------------------------------------------------

    def parse_model(self) -> ActorNode:
        self.expect("format")
        version = self.peek()
        if version.kind == "eof":
            self.expected("a format version")
        if version.kind != "number" or version.text != "1":
            self.fail(f"unsupported format version {version.text!r}")
        self.next()
        node = self.parse_actor()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after the top-level actor")
        return node

    def parse_actor(self) -> ActorNode:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in _KINDS:
            if tok.kind == "eof":
                self.fail("expected an actor block")
            self.fail(f"expected an actor kind (one of {', '.join(sorted(_KINDS))})")
        kind = _KINDS[self.next().text]
        name = self.take("ident", "an actor name").text
        self.expect("{")

        ports = list(_FIXED_PORTS.get(kind, ()))
        parameters = {}
        variables = {}
        locations = set()
        initial = None
        transitions = []
        inner = []
        connections = []
        controller = None
        refinements = {}

        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(f"unterminated actor block '{name}'")
            word = tok.text
            if word in _KINDS and self.tokens[self.pos + 1].kind == "ident":
                if kind not in (COMPOSITE, MODAL):
                    self.fail(f"a {kind} actor cannot contain inner actors")
                inner.append(self.parse_actor())
            elif word in ("input", "output"):
                self.next()
                if kind in _FIXED_PORTS:
                    self.fail(f"a {kind} actor's ports are fixed and not declared")
                pname = self.take("ident", "a port name").text
                direction = IN if word == "input" else OUT
                ports.append(Port(pname, direction))
            elif word == "var":
                self.next()
                if kind not in (FSM, COMPOSITE):
                    self.fail("only state machines and composites hold variables")
                vname = self.take("ident", "a variable name").text
                self.expect("=")
                variables[vname] = self.parse_literal()
            elif word == "initial":
                self.next()
                if kind != FSM:
                    self.fail("'initial' belongs in a state machine")
                initial = self.take("ident", "a location name").text
                locations.add(initial)
            elif word == "location":
                self.next()
                if kind != FSM:
                    self.fail("'location' belongs in a state machine")
                locations.add(self.take("ident", "a location name").text)
            elif word == "transition":
                if kind != FSM:
                    self.fail("'transition' belongs in a state machine")
                transitions.append(self.parse_transition(locations))
            elif word == "controller":
                self.next()
                if kind != MODAL:
                    self.fail("'controller' belongs in a modal actor")
                controller = self.take("ident", "an actor name").text
            elif word == "refine":
                self.next()
                if kind != MODAL:
                    self.fail("'refine' belongs in a modal actor")
                loc = self.take("ident", "a location name").text
                self.expect("->")
                target = self.take("ident", "an actor name").text
                if loc in refinements:
                    self.fail(f"location '{loc}' refined twice")
                refinements[loc] = target
            elif word == "connect":
                self.next()
                if kind != COMPOSITE:
                    if kind == MODAL:
                        self.fail("modal actors take no explicit connections")
                    self.fail("'connect' belongs in a composite")
                connections.append(self.parse_connection())
            elif tok.kind == "ident" and self.tokens[self.pos + 1].text == "=":
                self.next()
                self.next()
                if word in parameters:
                    self.fail(f"parameter '{word}' set twice", tok)
                parameters[word] = self.parse_literal()
            else:
                self.fail(f"unexpected {word!r} in a {kind} block")

        return ActorNode(
            name=name,
            kind=kind,
            ports=tuple(ports),
            parameters=parameters,
            locations=tuple(locations),
            init_location=initial,
            variables=variables,
            transitions=tuple(transitions),
            inner=tuple(inner),
            connections=tuple(connections),
            controller=controller,
            refinements=refinements,
        )

    def parse_transition(self, locations: set) -> Transition:
        self.expect("transition")
        src = self.take("ident", "a location name").text
        self.expect("->")
        dst = self.take("ident", "a location name").text
        locations.update((src, dst))
        self.expect("{")
        guard = Lit(BoolVal(True))
        outputs = {}
        sets = {}
        while not self.accept("}"):
            tok = self.peek()
            if tok.text == "guard":
                self.next()
                guard = self.climb()
            elif tok.text == "output":
                self.next()
                port = self.take("ident", "a port name").text
                self.expect("=")
                if port in outputs:
                    self.fail(f"output '{port}' assigned twice", tok)
                outputs[port] = self.climb()
            elif tok.text == "set":
                self.next()
                var = self.take("ident", "a variable name").text
                self.expect("=")
                if var in sets:
                    self.fail(f"variable '{var}' set twice", tok)
                sets[var] = self.climb()
            elif tok.kind == "eof":
                self.fail("unterminated transition block")
            else:
                self.expected("guard/output/set")
        return Transition(src, dst, guard, outputs, sets)

    def parse_connection(self) -> Connection:
        source = self.parse_endpoint()
        self.expect("->")
        sinks = [self.parse_endpoint()]
        while self.accept(","):
            sinks.append(self.parse_endpoint())
        return Connection(source, tuple(sinks))

    def parse_endpoint(self) -> PortRef:
        actor = self.take("ident", "an actor name (or 'parent')").text
        self.expect(".")
        port = self.take("ident", "a port name").text
        if actor == "parent":
            return PortRef(PARENT, port)
        return PortRef((actor,), port)


def parse_model(text: str) -> ActorNode:
    """Parse a model document into an (unvalidated) actor tree."""
    if not text.strip():
        raise ParseError(1, 1, "empty model document")
    return _ModelParser(text).parse_model()


# The formula grammar. --------------------------------------------------------


class _FormulaParser(Parser):
    # Whitespace, then one token.
    token_re = re.compile(
        r"""
        \s*
        (?:
          (?P<qident>'[A-Za-z_][A-Za-z0-9_]*)
        | (?P<number>\d+\.\d+|\d+)
        | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<string>"(?:\\.|[^"\\\n])*")
        | (?P<op>->|\[\]|<>|/\\|\\/|[~()|,=.@#:/\-])
        )?
        """,
        re.VERBOSE,
    )
    binary = {symbol: (prec, right, cls) for cls, (symbol, prec, right) in _BINARY.items()}
    prefix = {symbol: cls for cls, symbol in _PREFIX.items()}

    def quoted_name(self, what: str) -> str:
        return self.take("qident", f"{what} (a quoted name like 'X)").text[1:]

    def parse_formula(self) -> Formula:
        f = self.climb()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after the formula")
        return f

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "True":
            self.next()
            return TrueF()
        if tok.text == "False":
            self.next()
            return FalseF()
        if tok.kind == "qident":
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
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            if "." in tok.text:
                if negative:
                    self.fail("time values are non-negative")
                return TimeVal(Fraction(tok.text))
            if self.accept("/"):
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
        if tok.text in ("True", "False"):
            self.next()
            return BoolVal(tok.text == "True")
        if tok.kind == "string":
            self.next()
            return StringVal(unescape(tok.text))
        self.expected("a value")

    # Bare propositions (for searches). -------------------------------------

    def parse_prop(self):
        f = self._path_form()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after the proposition")
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
