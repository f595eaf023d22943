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
a validated expression into a closure over port-status and variable
slots once per network (Feeley & Lapalme, "Using closures for code
generation", 1987); parameters, being static, are folded in as
constants.  What evaluation can still reject is a value: a mistyped
operand (``TypeMismatch``), an absent port's value (``AbsentPortRead``)
or a port not yet known (``UnknownPortRead``).  ``tests/expr_ref.py``
holds the tree-walking reference the compiled form is tested against.

Some guards are proven unable to raise once their ports are known
(:func:`guards_cannot_raise`), so that the fixed point may leave a
machine that nothing reaches unrun.  A proven guard reads no
``value()``, and it types as boolean over the kinds (value classes) of
its literals, its machine's parameters and its machine's variables,
by the rules of ``_apply_binary``, read strictly: both operands of
``&&`` and ``||`` boolean, ``==`` and ``!=`` over one kind, ordering
over two integers or two times, ``+ - *`` over two integers, ``+`` over
two times.  Time subtraction, which raises when it goes negative, is
never proven.  A variable has its initial value's kind when every
update of it types to that kind: the greatest such assignment, found by
dropping a variable's kind until none of them changes.
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


_COMPARISONS = {"<", "<=", ">", ">="}


def _as_bool(v: Value, what: str) -> bool:
    if not isinstance(v, BoolVal):
        raise TypeMismatch(f"{what} needs a boolean, got {v!r}")
    return v.value


def _bool(value: bool) -> BoolVal:
    return TRUE if value else FALSE


def _apply_binary(op: str, lhs: Value, rhs: Value) -> Value:
    if op == "&&":
        return _bool(_as_bool(lhs, "'&&'") and _as_bool(rhs, "'&&'"))
    if op == "||":
        return _bool(_as_bool(lhs, "'||'") or _as_bool(rhs, "'||'"))
    if op in ("==", "!="):
        if type(lhs) is not type(rhs):
            raise TypeMismatch(f"cannot compare {lhs!r} with {rhs!r}")
        return _bool((lhs == rhs) if op == "==" else (lhs != rhs))
    if op in _COMPARISONS:
        if isinstance(lhs, IntVal) and isinstance(rhs, IntVal):
            a, b = lhs.value, rhs.value
        elif isinstance(lhs, TimeVal) and isinstance(rhs, TimeVal):
            a, b = lhs.value, rhs.value
        else:
            raise TypeMismatch(f"cannot order {lhs!r} and {rhs!r}")
        if op == "<":
            return _bool(a < b)
        if op == "<=":
            return _bool(a <= b)
        if op == ">":
            return _bool(a > b)
        return _bool(a >= b)
    # What is left is arithmetic: + - *
    if isinstance(lhs, IntVal) and isinstance(rhs, IntVal):
        a, b = lhs.value, rhs.value
        return IntVal(a + b if op == "+" else a - b if op == "-" else a * b)
    if isinstance(lhs, TimeVal) and isinstance(rhs, TimeVal) and op in ("+", "-"):
        result = lhs.value + rhs.value if op == "+" else lhs.value - rhs.value
        if result < 0:
            raise TypeMismatch("time subtraction went negative")
        return TimeVal(result)
    raise TypeMismatch(f"cannot apply {op!r} to {lhs!r} and {rhs!r}")


# Compilation to closures. ---------------------------------------------------
#
# A compiled expression is called as ``fn(statuses, values)``: ``statuses``
# holds port statuses indexed by port id and ``values`` variable values
# indexed by slot.  Each operator evaluates both operands, left first, and
# then takes a fast path for the operand kinds it expects; anything else
# goes to ``_apply_binary``, which computes the rest or raises
# ``TypeMismatch``.


def compile_expr(expr: Expr, slots: Mapping[str, int], parameters: Mapping[str, Value], ports: Mapping[str, int]):
    """A closure computing ``expr``, which ``model.validate`` accepted.

    ``slots`` maps the machine's variable names to value slots, ``ports``
    its input port names to port ids; ``parameters`` are read now.
    Variables shadow parameters of the same name.  Validation leaves no
    name unbound and no port outside ``ports``.
    """
    if isinstance(expr, Binary):
        return _compile_binary(
            expr.op,
            compile_expr(expr.left, slots, parameters, ports),
            compile_expr(expr.right, slots, parameters, ports),
        )
    if isinstance(expr, IsPresent):
        return _compile_port(expr.port, ports[expr.port], value=False)
    if isinstance(expr, PortValue):
        return _compile_port(expr.port, ports[expr.port], value=True)
    if isinstance(expr, Var):
        slot = slots.get(expr.name)
        if slot is None:
            return _constant(parameters[expr.name])
        return lambda st, vs: vs[slot]
    if isinstance(expr, Lit):
        return _constant(expr.value)
    return _compile_unary(expr.op, compile_expr(expr.operand, slots, parameters, ports))


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
    if op == "!":

        def negate(st, vs):
            return FALSE if _as_bool(operand(st, vs), "'!'") else TRUE

        return negate

    def minus(st, vs):
        v = operand(st, vs)
        if isinstance(v, IntVal):
            return IntVal(-v.value)
        raise TypeMismatch(f"unary '-' needs an integer, got {v!r}")

    return minus


def _compile_binary(op: str, left, right):
    if op in ("&&", "||"):
        conjunction = op == "&&"

        def logic(st, vs):
            a = left(st, vs)
            b = right(st, vs)
            if a.__class__ is BoolVal and b.__class__ is BoolVal:
                if conjunction:
                    return TRUE if a.value and b.value else FALSE
                return TRUE if a.value or b.value else FALSE
            return _apply_binary(op, a, b)

        return logic
    if op in ("==", "!="):
        equal = op == "=="

        def compare(st, vs):
            a = left(st, vs)
            b = right(st, vs)
            if a.__class__ is b.__class__:
                return TRUE if (a == b) == equal else FALSE
            return _apply_binary(op, a, b)

        return compare
    order = _ORDERS.get(op)
    if order is not None:

        def ordered(st, vs):
            a = left(st, vs)
            b = right(st, vs)
            if a.__class__ is IntVal and b.__class__ is IntVal:
                return TRUE if order(a.value, b.value) else FALSE
            return _apply_binary(op, a, b)

        return ordered
    arithmetic = _INT_ARITHMETIC[op]

    def calculate(st, vs):
        a = left(st, vs)
        b = right(st, vs)
        if a.__class__ is IntVal and b.__class__ is IntVal:
            return IntVal(arithmetic(a.value, b.value))
        return _apply_binary(op, a, b)

    return calculate


_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_INT_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


# Static kinds. ----------------------------------------------------------------

_KINDS = (BoolVal, IntVal, TimeVal, StringVal)


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
        if left is None or left is not right:
            return None
        op = expr.op
        if op in ("&&", "||"):
            return BoolVal if left is BoolVal else None
        if op in ("==", "!="):
            return BoolVal
        if op in _COMPARISONS:
            return BoolVal if left in (IntVal, TimeVal) else None
        if left is IntVal:
            return IntVal
        return TimeVal if left is TimeVal and op == "+" else None
    if isinstance(expr, IsPresent):
        return BoolVal
    if isinstance(expr, Var):
        return kinds.get(expr.name)
    if isinstance(expr, Lit):
        return _kind_of_value(expr.value)
    if isinstance(expr, Unary):
        operand = kind_of(expr.operand, kinds)
        if expr.op == "!":
            return BoolVal if operand is BoolVal else None
        return IntVal if operand is IntVal else None
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
            if node.op not in ("!", "-"):
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
