"""The model file format: parser and canonical printer.

A model file is a `format 1` header followed by one actor block:

    format 1

    composite Top {
      var Cred = 0
      clock Clock { period = 1 }
      fsm Light {
        input Sec
        output Out
        var count = 0
        initial Off
        transition Off -> On { guard isPresent(Sec) output Out = 1 set count = count + 1 }
      }
      setvar SetCred { target = "Cred" }
      connect Clock.output -> Light.Sec
      connect Light.Out -> SetCred.input
    }

Block kinds are clock, delay, fsm, setvar, composite, and modal.  Lines
starting with `//` are comments.  Clocks, delays, and setvar actors have
fixed ports (a clock's `output`, a delay's `input`/`output`, a setvar's
`input`) that are implied rather than written.  Modal blocks declare
`controller <name>` and one `refine <location> -> <actor>` per
controller location; their internal wiring is implied by the port lists,
so `connect` is not accepted there.  Decimal literals like `1.5` are
exact time values (no floating point anywhere); `3/2` means the same
number, and a bare integer is an integer.  There is no division: a `/`
anywhere but inside such a literal is a ParseError.  In expressions
`||` binds loosest, then `&&`, the comparisons (one level), `+ -`, `*`,
and the prefix `!` and `-` tightest (``expr._PRECEDENCE``); binary
operators group to the left.  An expression nested more than
``syntax.MAX_DEPTH`` levels deep is a ParseError, and so is an actor
block nested inside more than ``MAX_DEPTH - 1`` others, so that the
recursive passes over a tree (normalization, validation, printing) stay
far from Python's recursion limit.

The printer emits one canonical form: parsing its output reproduces the
same tree, and printing is idempotent on any parse result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import ParseError
from .expr import _PRECEDENCE, Binary, Expr, IsPresent, Lit, PortValue, Unary, Var, expr_text
from .model import (
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
from .syntax import MAX_DEPTH, Lexicon, Parser, unescape
from .values import FALSE, TRUE, IntVal, StringVal, TimeVal, literal_text

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
    lexicon = Lexicon(
        skip=r"[ \t\r\n]* (?://[^\n]*[ \t\r\n]*)*",
        token=r"""
          \d+\.\d+|\d+
        | [A-Za-z_][A-Za-z0-9_]*
        | "(?:\\.|[^"\\\n])*"
        | ->|==|!=|<=|>=|&&|\|\||[{}(),.=<>+\-*!/]
        """,
        word="ident",
    )
    binary = {op: (prec, False, partial(Binary, op)) for op, prec in _PRECEDENCE.items()}
    prefix = {op: partial(Unary, op) for op in ("!", "-")}

    def expected(self, what: str):
        # '/' is a token only for rational literals, so finding it anywhere
        # else (`n / 2`) means a division the language does not have.
        if self.tokens[self.pos] == "/":
            self.fail("'/' only forms rational literals like 3/2")
        super().expected(what)

    # Literals. ----------------------------------------------------------

    def parse_literal(self):
        tokens, kinds, pos = self.tokens, self.kinds, self.pos
        text = tokens[pos]
        if text == "-":
            self.pos = pos = pos + 1
            if kinds[pos] != "number" or "." in tokens[pos]:
                self.fail("only integer literals may be negative")
            self.pos = pos + 1
            return IntVal(-self.number(pos))
        kind = kinds[pos]
        if kind == "number":
            if "." in text:
                self.pos = pos + 1
                return TimeVal(self.number(pos, Fraction))
            if tokens[pos + 1] == "/" and kinds[pos + 2] == "number":
                if "." in tokens[pos + 2] or not (denom := self.number(pos + 2)):
                    self.fail("rational literals are integer/integer", pos + 2)
                self.pos = pos + 3
                return TimeVal(Fraction(self.number(pos), denom))
            self.pos = pos + 1
            return IntVal(self.number(pos))
        if text == "true" or text == "false":
            self.pos = pos + 1
            return TRUE if text == "true" else FALSE
        if kind == "string":
            self.pos = pos + 1
            return StringVal(unescape(text))
        self.expected("a literal")

    # Expressions. --------------------------------------------------------

    def primary(self) -> Expr:
        pos = self.pos
        text, kind = self.tokens[pos], self.kinds[pos]
        if kind == "ident":
            if text == "isPresent" or text == "value":
                self.pos = pos + 1
                self.expect("(")
                port = self.take("ident", "a port name")
                self.expect(")")
                return IsPresent(port) if text == "isPresent" else PortValue(port)
            if text != "true" and text != "false":
                self.pos = pos + 1
                return Var(text)
        elif kind != "number" and kind != "string":
            self.expected("an expression")
        return Lit(self.parse_literal())

    # The model grammar. ------------------------------------------------------

    def parse_model(self) -> ActorNode:
        self.expect("format")
        kind = self.kinds[self.pos]
        if kind == "eof":
            self.expected("a format version")
        if kind != "number" or self.tokens[self.pos] != "1":
            self.fail(f"unsupported format version {self.tokens[self.pos]!r}")
        self.pos += 1
        node = self.parse_actor()
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected {self.tokens[self.pos]!r} after the top-level actor")
        return node

    def parse_actor(self, depth: int = 1) -> ActorNode:
        """One actor block, ``depth`` blocks deep counting itself."""
        if depth > MAX_DEPTH:
            self.fail(f"actor blocks nested more than {MAX_DEPTH} levels deep")
        tokens, kinds = self.tokens, self.kinds
        kind = _KINDS.get(tokens[self.pos])
        if kind is None:
            if kinds[self.pos] == "eof":
                self.fail("expected an actor block")
            self.fail(f"expected an actor kind (one of {', '.join(sorted(_KINDS))})")
        self.pos += 1
        name = self.take("ident", "an actor name")
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

        while (word := tokens[pos := self.pos]) != "}":
            if kinds[pos] == "eof":
                self.fail(f"unterminated actor block '{name}'")
            if word in _KINDS and kinds[pos + 1] == "ident":
                if kind != COMPOSITE and kind != MODAL:
                    self.fail(f"a {kind} actor cannot contain inner actors")
                inner.append(self.parse_actor(depth + 1))
                continue
            self.pos = pos + 1
            if word == "input" or word == "output":
                if kind in _FIXED_PORTS:
                    self.fail(f"a {kind} actor's ports are fixed and not declared")
                ports.append(Port(self.take("ident", "a port name"), IN if word == "input" else OUT))
            elif word == "var":
                if kind != FSM and kind != COMPOSITE:
                    self.fail("only state machines and composites hold variables")
                vname = self.take("ident", "a variable name")
                self.expect("=")
                variables[vname] = self.parse_literal()
            elif word == "initial":
                if kind != FSM:
                    self.fail("'initial' belongs in a state machine")
                initial = self.take("ident", "a location name")
                locations.add(initial)
            elif word == "location":
                if kind != FSM:
                    self.fail("'location' belongs in a state machine")
                locations.add(self.take("ident", "a location name"))
            elif word == "transition":
                if kind != FSM:
                    self.fail("'transition' belongs in a state machine", pos)
                transitions.append(self.parse_transition(locations))
            elif word == "controller":
                if kind != MODAL:
                    self.fail("'controller' belongs in a modal actor")
                controller = self.take("ident", "an actor name")
            elif word == "refine":
                if kind != MODAL:
                    self.fail("'refine' belongs in a modal actor")
                loc = self.take("ident", "a location name")
                self.expect("->")
                target = self.take("ident", "an actor name")
                if loc in refinements:
                    self.fail(f"location '{loc}' refined twice")
                refinements[loc] = target
            elif word == "connect":
                if kind != COMPOSITE:
                    if kind == MODAL:
                        self.fail("modal actors take no explicit connections")
                    self.fail("'connect' belongs in a composite")
                connections.append(self.parse_connection())
            elif kinds[pos] == "ident" and tokens[pos + 1] == "=":
                self.pos = pos + 2
                if word in parameters:
                    self.fail(f"parameter '{word}' set twice", pos)
                parameters[word] = self.parse_literal()
            else:
                self.fail(f"unexpected {word!r} in a {kind} block", pos)
        self.pos = pos + 1

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
        # The caller has stepped over `transition`.
        src = self.take("ident", "a location name")
        self.expect("->")
        dst = self.take("ident", "a location name")
        locations.update((src, dst))
        self.expect("{")
        guard = _TRUE
        outputs = {}
        sets = {}
        tokens = self.tokens
        while (word := tokens[pos := self.pos]) != "}":
            if word == "guard":
                self.pos = pos + 1
                guard = self.climb()
            elif word == "output":
                self.pos = pos + 1
                port = self.take("ident", "a port name")
                self.expect("=")
                if port in outputs:
                    self.fail(f"output '{port}' assigned twice", pos)
                outputs[port] = self.climb()
            elif word == "set":
                self.pos = pos + 1
                var = self.take("ident", "a variable name")
                self.expect("=")
                if var in sets:
                    self.fail(f"variable '{var}' set twice", pos)
                sets[var] = self.climb()
            elif self.kinds[pos] == "eof":
                self.fail("unterminated transition block")
            else:
                self.expected("guard/output/set")
        self.pos = pos + 1
        return Transition(src, dst, guard, outputs, sets)

    def parse_connection(self) -> Connection:
        source = self.parse_endpoint()
        self.expect("->")
        sinks = [self.parse_endpoint()]
        while self.accept(","):
            sinks.append(self.parse_endpoint())
        return Connection(source, tuple(sinks))

    def parse_endpoint(self) -> PortRef:
        actor = self.take("ident", "an actor name (or 'parent')")
        self.expect(".")
        port = self.take("ident", "a port name")
        return PortRef(PARENT if actor == "parent" else (actor,), port)


_TRUE = Lit(TRUE)


def parse_model(text: str) -> ActorNode:
    """Parse a model document into an (unvalidated) actor tree."""
    if not text.strip():
        raise ParseError(1, 1, "empty model document")
    return _ModelParser(text).parse_model()


# Canonical printing. -----------------------------------------------------------


def _endpoint_text(ref: PortRef) -> str:
    if tuple(ref.actor) == PARENT:
        return f"parent.{ref.port}"
    return f"{'.'.join(ref.actor)}.{ref.port}"


def _transition_text(t: Transition) -> str:
    parts = [f"guard {expr_text(t.guard)}"]
    for port, expr in t.outputs.items():
        parts.append(f"output {port} = {expr_text(expr)}")
    for var, expr in t.sets.items():
        parts.append(f"set {var} = {expr_text(expr)}")
    return f"transition {t.source} -> {t.target} {{ {' '.join(parts)} }}"


def _print_actor(node: ActorNode, depth: int, lines: list) -> None:
    pad = "  " * depth
    body = "  " * (depth + 1)
    lines.append(f"{pad}{node.kind} {node.name} {{")
    for key, value in node.parameters.items():
        lines.append(f"{body}{key} = {literal_text(value)}")
    if node.kind not in _FIXED_PORTS:
        for name in node.port_names(IN):
            lines.append(f"{body}input {name}")
        for name in node.port_names(OUT):
            lines.append(f"{body}output {name}")
    for key, value in node.variables.items():
        lines.append(f"{body}var {key} = {literal_text(value)}")
    if node.kind == FSM:
        if node.init_location is not None:
            lines.append(f"{body}initial {node.init_location}")
        for loc in node.locations:
            lines.append(f"{body}location {loc}")
        for t in node.transitions:
            lines.append(f"{body}{_transition_text(t)}")
    if node.kind == MODAL:
        if node.controller is not None:
            lines.append(f"{body}controller {node.controller}")
        for loc, target in node.refinements.items():
            lines.append(f"{body}refine {loc} -> {target}")
    for child in node.inner:
        _print_actor(child, depth + 1, lines)
    if node.kind == COMPOSITE:
        for conn in node.connections:
            sinks = ", ".join(_endpoint_text(s) for s in conn.sinks)
            lines.append(f"{body}connect {_endpoint_text(conn.source)} -> {sinks}")
    lines.append(f"{pad}}}")


def print_model(top: ActorNode) -> str:
    """The canonical text for a model tree (print . parse . print = print)."""
    lines = ["format 1", ""]
    _print_actor(top, 0, lines)
    return "\n".join(lines) + "\n"
