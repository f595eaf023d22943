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
operators group to the left.  An expression nested more than ``syntax.MAX_DEPTH``
levels deep is a ParseError.

The printer emits one canonical form: parsing its output reproduces the
same tree, and printing is idempotent on any parse result.
"""

from __future__ import annotations

import re
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
from .syntax import Parser, unescape
from .values import BoolVal, IntVal, StringVal, TimeVal, literal_text

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
