"""Reference semantics for guard and action expressions.

The engine compiles each expression to a closure once per network
(``expr.compile_expr``).  This is the direct tree walk it is tested
against: both give the same value, or raise the same error with the
same message, on every expression ``model.validate`` accepts.  The two
share the operator semantics of ``expr._apply_binary``; what the walk
adds is its own lookup of names and ports, by name rather than by slot
and port id.
"""

from __future__ import annotations

from typing import Mapping

from de_fixpoint.errors import AbsentPortRead, EngineError, TypeMismatch, UnknownPortRead
from de_fixpoint.expr import Binary, Expr, IsPresent, Lit, PortValue, Unary, Var, _apply_binary, _as_bool, _bool
from de_fixpoint.values import Absent, IntVal, PortStatus, Present, Unknown, Value


class UnboundIdentifier(EngineError):
    """An expression referenced a name that is neither a variable nor a parameter."""


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
