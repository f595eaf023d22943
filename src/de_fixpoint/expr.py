"""Guard and action expressions.

Expressions appear in transition guards, transition outputs and variable
updates.  They read the owning machine's variables, parameters and input
ports.  Evaluation is strict: reading an unknown port raises, which is why
the fixed-point engine evaluates nothing before every port it reads
(`referenced_ports`, collected once per model) is known.

The engine does not walk expression trees.  :func:`compile_expr` turns
an expression into a closure over port-status and variable slots once
per network (Feeley & Lapalme, "Using closures for code generation",
1987); parameters, being static, are folded in as constants.
:func:`eval_expr` is the reference the compiled form is tested against:
both give the same value, or raise the same error with the same message.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .errors import AbsentPortRead, TypeMismatch, UnboundIdentifier, UnknownPortRead
from .values import (
    FALSE,
    TRUE,
    Absent,
    BoolVal,
    IntVal,
    PortStatus,
    Present,
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
_ARITHMETIC = {"+", "-", "*"}


def _as_bool(v: Value, what: str) -> bool:
    if not isinstance(v, BoolVal):
        raise TypeMismatch(f"{what} needs a boolean, got {v!r}")
    return v.value


def _bool(value: bool) -> BoolVal:
    return TRUE if value else FALSE


def eval_expr(
    expr: Expr,
    variables: Mapping[str, Value],
    parameters: Mapping[str, Value],
    ports: Mapping[str, PortStatus],
) -> Value:
    """Evaluate an expression.  Variables shadow parameters of the same name."""
    # Most frequent node kinds first: guards are mostly binary operators
    # over port tests, variables and literals.
    if isinstance(expr, Binary):
        lhs = eval_expr(expr.left, variables, parameters, ports)
        rhs = eval_expr(expr.right, variables, parameters, ports)
        return _apply_binary(expr.op, lhs, rhs)
    if isinstance(expr, IsPresent):
        status = ports.get(expr.port)
        if status is None or isinstance(status, Unknown):
            raise UnknownPortRead(expr.port)
        return _bool(isinstance(status, Present))
    if isinstance(expr, Var):
        if expr.name in variables:
            return variables[expr.name]
        if expr.name in parameters:
            return parameters[expr.name]
        raise UnboundIdentifier(expr.name)
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, PortValue):
        status = ports.get(expr.port)
        if status is None or isinstance(status, Unknown):
            raise UnknownPortRead(expr.port)
        if isinstance(status, Absent):
            raise AbsentPortRead(expr.port)
        return status.value
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand, variables, parameters, ports)
        if expr.op == "!":
            return _bool(not _as_bool(v, "'!'"))
        if expr.op == "-":
            if isinstance(v, IntVal):
                return IntVal(-v.value)
            raise TypeMismatch(f"unary '-' needs an integer, got {v!r}")
        raise TypeMismatch(f"unknown unary operator {expr.op!r}")
    raise TypeMismatch(f"not an expression: {expr!r}")


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
    if op in _ARITHMETIC:
        if isinstance(lhs, IntVal) and isinstance(rhs, IntVal):
            a, b = lhs.value, rhs.value
            return IntVal(a + b if op == "+" else a - b if op == "-" else a * b)
        if isinstance(lhs, TimeVal) and isinstance(rhs, TimeVal) and op in ("+", "-"):
            result = lhs.value + rhs.value if op == "+" else lhs.value - rhs.value
            if result < 0:
                raise TypeMismatch("time subtraction went negative")
            return TimeVal(result)
        raise TypeMismatch(f"cannot apply {op!r} to {lhs!r} and {rhs!r}")
    raise TypeMismatch(f"unknown operator {op!r}")


# Compilation to closures. ---------------------------------------------------
#
# A compiled expression is called as ``fn(statuses, values)``: ``statuses``
# holds port statuses indexed by port id and ``values`` variable values
# indexed by slot.  Each operator evaluates both operands, left first, and
# then takes a fast path for the operand kinds it expects; anything else
# goes to ``_apply_binary``, so mistyped operands fail exactly as in
# ``eval_expr``.


def compile_expr(expr: Expr, slots: Mapping[str, int], parameters: Mapping[str, Value], ports: Mapping[str, int]):
    """A closure computing ``expr``, as ``eval_expr`` would.

    ``slots`` maps the machine's variable names to value slots, ``ports``
    its input port names to port ids; ``parameters`` are read now.
    Variables shadow parameters of the same name.  A name or port that
    is bound nowhere raises when (and only if) it is evaluated.
    """
    if isinstance(expr, Binary):
        return _compile_binary(
            expr.op,
            compile_expr(expr.left, slots, parameters, ports),
            compile_expr(expr.right, slots, parameters, ports),
        )
    if isinstance(expr, IsPresent):
        return _compile_port(expr.port, ports, value=False)
    if isinstance(expr, PortValue):
        return _compile_port(expr.port, ports, value=True)
    if isinstance(expr, Var):
        name = expr.name
        if name in slots:
            slot = slots[name]
            return lambda st, vs: vs[slot]
        if name in parameters:
            return _constant(parameters[name])

        def unbound(st, vs):
            raise UnboundIdentifier(name)

        return unbound
    if isinstance(expr, Lit):
        return _constant(expr.value)
    if isinstance(expr, Unary):
        return _compile_unary(expr.op, compile_expr(expr.operand, slots, parameters, ports))
    text = f"not an expression: {expr!r}"

    def invalid(st, vs):
        raise TypeMismatch(text)

    return invalid


def _constant(value: Value):
    return lambda st, vs: value


def _compile_port(port: str, ports: Mapping[str, int], value: bool):
    """``isPresent(port)``, or ``value(port)`` when ``value``."""
    pid = ports.get(port)
    if pid is None:
        # Not an input of this machine: never known.
        def unknown(st, vs):
            raise UnknownPortRead(port)

        return unknown
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
    if op == "-":

        def minus(st, vs):
            v = operand(st, vs)
            if isinstance(v, IntVal):
                return IntVal(-v.value)
            raise TypeMismatch(f"unary '-' needs an integer, got {v!r}")

        return minus
    text = f"unknown unary operator {op!r}"

    def unknown(st, vs):
        operand(st, vs)
        raise TypeMismatch(text)

    return unknown


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
    arithmetic = _INT_ARITHMETIC.get(op)
    if arithmetic is not None:

        def calculate(st, vs):
            a = left(st, vs)
            b = right(st, vs)
            if a.__class__ is IntVal and b.__class__ is IntVal:
                return IntVal(arithmetic(a.value, b.value))
            return _apply_binary(op, a, b)

        return calculate

    def fallback(st, vs):
        return _apply_binary(op, left(st, vs), right(st, vs))

    return fallback


_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_INT_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def referenced_ports(expr: Expr) -> frozenset:
    """All port names an expression reads (via isPresent or value)."""
    found = set()
    _walk_ports(expr, found)
    return frozenset(found)


def _walk_ports(expr: Expr, found: set):
    if isinstance(expr, (IsPresent, PortValue)):
        found.add(expr.port)
    elif isinstance(expr, Unary):
        _walk_ports(expr.operand, found)
    elif isinstance(expr, Binary):
        _walk_ports(expr.left, found)
        _walk_ports(expr.right, found)


def referenced_names(expr: Expr) -> frozenset:
    """All variable/parameter identifiers an expression reads."""
    found = set()
    _walk_names(expr, found)
    return frozenset(found)


def _walk_names(expr: Expr, found: set):
    if isinstance(expr, Var):
        found.add(expr.name)
    elif isinstance(expr, Unary):
        _walk_names(expr.operand, found)
    elif isinstance(expr, Binary):
        _walk_names(expr.left, found)
        _walk_names(expr.right, found)


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
        prec = _PRECEDENCE[expr.op]
        text = (
            f"{expr_text(expr.left, prec)} {expr.op} "
            f"{expr_text(expr.right, prec, right_side=True)}"
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {expr!r}")
