"""Guard and action expressions.

Expressions appear in transition guards, transition outputs and variable
updates.  They read the owning machine's variables, parameters and input
ports.  Evaluation is strict: reading an unknown port raises, which is why
the fixed-point engine evaluates nothing before every port it reads is
known.

The grammar is the model parser's: literals, names, ``isPresent`` and
``value`` of a port, unary ``!`` and ``-``, and the binary operators of
``_PRECEDENCE``.  :func:`references` walks an expression once for the
names and ports it reads, and rejects anything outside the grammar;
``model.validate`` calls it on every expression of a tree, so no tree
the engine runs on holds an off-grammar node, an unbound name or a
port that is not an input of its machine.

The engine does not walk expression trees.  :func:`compile_expr` turns
a validated expression, in one walk, into a closure over port-status
and variable slots and the ids of the ports it reads, once per network
(Feeley & Lapalme, "Using closures for code generation", 1987);
parameters, being static, are folded in as constants.  What evaluation can still reject is a value: a mistyped
operand (``TypeMismatch``), an absent port's value (``AbsentPortRead``)
or a port not yet known (``UnknownPortRead``).  ``tests/expr_ref.py``
holds the tree-walking reference the compiled form is tested against.

Some guards are proven unable to raise once their ports are known
(:func:`guards_cannot_raise`), so that the fixed point may leave a
machine that nothing reaches unrun.  A proven guard reads no
``value()``, and it types as boolean over the kinds (value classes) of
its literals, its machine's parameters and its machine's variables,
by the operator rules that evaluation reads (``_BINARY`` and
``_UNARY``): an operator gives the result kind of its row for its
operands' kind, and ``&&`` and ``||``, read strictly, take two
booleans.  Time subtraction, which raises when it goes negative, has no
result kind, so it is never proven.  A variable has its initial value's
kind when every update of it types to that kind: the greatest such
assignment, found by dropping a variable's kind until none of them
changes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .errors import AbsentPortRead, TypeMismatch, UnknownPortRead
from .values import (
    FALSE,
    TRUE,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
    Unknown,
    Value,
    literal_text,
)


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: Value


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class IsPresent(Expr):
    """True when the named input port carries a value this iteration."""

    port: str


@dataclass(frozen=True)
class PortValue(Expr):
    """The value on a present input port; an error on absent ports."""

    port: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # && || + - * < <= > >= == !=
    left: Expr
    right: Expr


# The operator rules. ----------------------------------------------------------
#
# One row per operator: its function of the operands' values, the message
# of the TypeMismatch it raises on operands it does not take, and, by the
# kind (value class) of the operands it takes, the kind of its result and
# the wrapper that makes a value of the result.  A binary operator takes
# two operands of one kind.  The result kind is None where the operator
# may still raise: a time subtraction that goes negative.  Compilation
# and ``kind_of`` both read these rows; ``&&`` and ``||`` have none (see
# ``_compile_logic``).

# Integers first: a closure tests its row's first kind before the others.
_KINDS = (IntVal, BoolVal, TimeVal, StringVal)


def _time_difference(value) -> TimeVal:
    if value < 0:
        raise TypeMismatch("time subtraction went negative")
    return TimeVal(value)


_BOOL = (BoolVal, (FALSE, TRUE).__getitem__)
_INT = (IntVal, IntVal)
_EQUALITY = dict.fromkeys(_KINDS, _BOOL)
_ORDERING = {IntVal: _BOOL, TimeVal: _BOOL}

_BINARY = {
    "==": (operator.eq, "cannot compare {!r} with {!r}", _EQUALITY),
    "!=": (operator.ne, "cannot compare {!r} with {!r}", _EQUALITY),
    "<": (operator.lt, "cannot order {!r} and {!r}", _ORDERING),
    "<=": (operator.le, "cannot order {!r} and {!r}", _ORDERING),
    ">": (operator.gt, "cannot order {!r} and {!r}", _ORDERING),
    ">=": (operator.ge, "cannot order {!r} and {!r}", _ORDERING),
    "+": (operator.add, "cannot apply '+' to {!r} and {!r}", {IntVal: _INT, TimeVal: (TimeVal, TimeVal)}),
    "-": (operator.sub, "cannot apply '-' to {!r} and {!r}", {IntVal: _INT, TimeVal: (None, _time_difference)}),
    "*": (operator.mul, "cannot apply '*' to {!r} and {!r}", {IntVal: _INT}),
}
_UNARY = {
    "!": (operator.not_, "'!' needs a boolean, got {!r}", {BoolVal: _BOOL}),
    "-": (operator.neg, "unary '-' needs an integer, got {!r}", {IntVal: _INT}),
}


# Compilation to closures. ---------------------------------------------------
#
# A compiled expression is called as ``fn(statuses, values)``: ``statuses``
# holds port statuses indexed by port id and ``values`` variable values
# indexed by slot.  Each operator evaluates its operands, left first, and
# applies its row for their kind, or raises the row's ``TypeMismatch``.


def compile_expr(expr: Expr, slots: Mapping[str, int], parameters: Mapping[str, Value], ports: Mapping[str, int]):
    """A closure computing ``expr``, which ``model.validate`` accepted, and
    the ids of the ports it reads, in no particular order, from one walk.

    ``slots`` maps the machine's variable names to value slots, ``ports``
    its input port names to port ids; ``parameters`` are read now.
    Variables shadow parameters of the same name.  Validation leaves no
    name unbound and no port outside ``ports``.
    """
    reads = set()

    def walk(expr):
        if isinstance(expr, Binary):
            return _compile_binary(expr.op, walk(expr.left), walk(expr.right))
        if isinstance(expr, (IsPresent, PortValue)):
            pid = ports[expr.port]
            reads.add(pid)
            return _compile_port(expr.port, pid, value=expr.__class__ is PortValue)
        if isinstance(expr, Var):
            slot = slots.get(expr.name)
            if slot is None:
                return _constant(parameters[expr.name])
            return lambda st, vs: vs[slot]
        if isinstance(expr, Lit):
            return _constant(expr.value)
        return _compile_unary(expr.op, walk(expr.operand))

    return walk(expr), tuple(reads)


def _constant(value: Value):
    return lambda st, vs: value


def _compile_port(port: str, pid: int, value: bool):
    """``isPresent(port)``, or ``value(port)`` when ``value``."""
    if value:

        def read(st, vs):
            status = st[pid]
            if isinstance(status, Present):
                return status.value
            if isinstance(status, Unknown):
                raise UnknownPortRead(port)
            raise AbsentPortRead(port)

        return read

    def present(st, vs):
        status = st[pid]
        if isinstance(status, Present):
            return TRUE
        if isinstance(status, Unknown):
            raise UnknownPortRead(port)
        return FALSE

    return present


def _compile_unary(op: str, operand):
    fn, message, rows = _UNARY[op]

    def unary(st, vs):
        v = operand(st, vs)
        row = rows.get(v.__class__)
        if row is None:
            raise TypeMismatch(message.format(v))
        return row[1](fn(v.value))

    return unary


def _compile_binary(op: str, left, right):
    if op in ("&&", "||"):
        return _compile_logic(op, left, right)
    fn, message, rows = _BINARY[op]
    # The row's first kind is tested by identity, before any lookup.
    first = next(iter(rows))
    if all(row is _BOOL for row in rows.values()):
        # A test wraps nothing: its result is one of two singletons.

        def test(st, vs):
            a = left(st, vs)
            b = right(st, vs)
            if a.__class__ is first and b.__class__ is first or a.__class__ is b.__class__ in rows:
                return TRUE if fn(a.value, b.value) else FALSE
            raise TypeMismatch(message.format(a, b))

        return test
    wrap_first = rows[first][1]

    def calculate(st, vs):
        a = left(st, vs)
        b = right(st, vs)
        if a.__class__ is first and b.__class__ is first:
            return wrap_first(fn(a.value, b.value))
        if a.__class__ is b.__class__ in rows:
            return rows[a.__class__][1](fn(a.value, b.value))
        raise TypeMismatch(message.format(a, b))

    return calculate


def _compile_logic(op: str, left, right):
    """``&&`` or ``||``: both operands are evaluated, left first, and must
    be boolean, except that a left operand that decides alone (false for
    ``&&``, true for ``||``) does so whatever the right one's kind."""
    conjunction = op == "&&"
    message = f"{op!r} needs a boolean, got {{!r}}"

    def logic(st, vs):
        a = left(st, vs)
        b = right(st, vs)
        if a.__class__ is BoolVal and b.__class__ is BoolVal:
            if conjunction:
                return TRUE if a.value and b.value else FALSE
            return TRUE if a.value or b.value else FALSE
        if a.__class__ is not BoolVal:
            raise TypeMismatch(message.format(a))
        if a.value != conjunction:  # it decides alone
            return FALSE if conjunction else TRUE
        raise TypeMismatch(message.format(b))

    return logic


# Static kinds. ----------------------------------------------------------------

_NO_ROW = (None, None)


def _kind_of_value(value) -> type | None:
    kind = value.__class__
    return kind if kind in _KINDS else None


def kind_of(expr: Expr, kinds: Mapping[str, type | None]) -> type | None:
    """The value class ``expr`` evaluates to, with every port it reads
    known, or None where that is not proven: the expression may raise or
    give another kind.  ``kinds`` maps each name it may read to its kind
    (None for a name whose kind is not known)."""
    if isinstance(expr, Binary):
        left, right = kind_of(expr.left, kinds), kind_of(expr.right, kinds)
        if left is not right:
            return None
        if expr.op in ("&&", "||"):
            return BoolVal if left is BoolVal else None
        return _BINARY[expr.op][2].get(left, _NO_ROW)[0]
    if isinstance(expr, IsPresent):
        return BoolVal
    if isinstance(expr, Var):
        return kinds.get(expr.name)
    if isinstance(expr, Lit):
        return _kind_of_value(expr.value)
    if isinstance(expr, Unary):
        return _UNARY[expr.op][2].get(kind_of(expr.operand, kinds), _NO_ROW)[0]
    return None  # value(port): any kind, and it raises on an absent port


def guards_cannot_raise(transitions, variables: Mapping[str, Value], parameters: Mapping[str, Value]) -> bool:
    """Whether every guard of a state machine's ``transitions`` is proven
    to give a boolean without raising, whatever its location, variables
    and (known) ports, for a machine whose variables start as
    ``variables`` and whose parameters are ``parameters``."""
    kinds = {name: _kind_of_value(value) for name, value in parameters.items()}
    # Variables shadow parameters of the same name.
    kinds.update((name, _kind_of_value(value)) for name, value in variables.items())
    updates = [(var, expr) for t in transitions for var, expr in t.sets.items()]
    changed = True
    while changed:
        changed = False
        for var, expr in updates:
            if kinds[var] is not None and kind_of(expr, kinds) is not kinds[var]:
                kinds[var] = None
                changed = True
    return all(kind_of(t.guard, kinds) is BoolVal for t in transitions)


def references(expr: Expr) -> tuple:
    """The names (variables or parameters) and the ports ``expr`` reads,
    as two sets, in one walk.

    Raises ValueError, saying what it found, at a node the model grammar
    cannot produce: an operator outside ``_PRECEDENCE`` and the unary
    ``!`` and ``-``, or an object that is not an expression.
    """
    names, ports = set(), set()
    pending = [expr]
    for node in pending:
        if isinstance(node, Binary):
            if node.op not in _PRECEDENCE:
                raise ValueError(f"uses unknown operator {node.op!r}")
            pending += (node.left, node.right)
        elif isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, (IsPresent, PortValue)):
            ports.add(node.port)
        elif isinstance(node, Unary):
            if node.op not in _UNARY:
                raise ValueError(f"uses unknown unary operator {node.op!r}")
            pending.append(node.operand)
        elif not isinstance(node, Lit):
            raise ValueError(f"is not an expression: {node!r}")
    return names, ports


# Rendering (shared by the model printer and error messages). ---------------

#: Binary operator precedence, loosest first; the model parser reads it too.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "==": 3,
    "!=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
}


def expr_text(expr: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    """``expr`` in model syntax.

    A transition renders its expressions for its sort key when it is
    built, before validation can reject anything, so a hand-built
    expression off the grammar renders too: an unknown binary operator
    binds loosest, and a non-expression shows as its repr.
    """
    if isinstance(expr, Lit):
        return literal_text(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IsPresent):
        return f"isPresent({expr.port})"
    if isinstance(expr, PortValue):
        return f"value({expr.port})"
    if isinstance(expr, Unary):
        return f"{expr.op}{expr_text(expr.operand, 6)}"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE.get(expr.op, 0)
        text = (
            f"{expr_text(expr.left, prec)} {expr.op} "
            f"{expr_text(expr.right, prec, right_side=True)}"
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    return repr(expr)
