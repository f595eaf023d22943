"""Reference semantics for guard and action expressions.

The engine compiles each expression to a closure once per network
(``expr.compile_expr``).  This is the direct tree walk it is tested
against: both give the same value, or raise the same error with the
same message, on every expression ``model.validate`` accepts.  The two
share only the expression classes: the walk looks names and ports up by
name rather than by slot and port id, and states each operator's rules
in its own code, where the engine reads them from ``expr``'s table.
"""

from __future__ import annotations

from typing import Mapping

from de_fixpoint.errors import AbsentPortRead, EngineError, TypeMismatch, UnknownPortRead
from de_fixpoint.expr import Binary, Expr, IsPresent, Lit, PortValue, Unary, Var
from de_fixpoint.values import FALSE, TRUE, Absent, BoolVal, IntVal, PortStatus, Present, TimeVal, Unknown, Value


class UnboundIdentifier(EngineError):
    """An expression referenced a name that is neither a variable nor a parameter."""


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


def eval_expr(
    expr: Expr,
    variables: Mapping[str, Value],
    parameters: Mapping[str, Value],
    ports: Mapping[str, PortStatus],
) -> Value:
    """Evaluate an expression.  Variables shadow parameters of the same name."""
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
    raise ValueError(f"off the expression grammar: {expr!r}")
