"""Expression evaluation against ports/variables, and source printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import (
    AbsentPortRead,
    EngineError,
    TypeMismatch,
    UnboundIdentifier,
    UnknownPortRead,
)
from de_fixpoint.expr import (
    Binary,
    IsPresent,
    Lit,
    PortValue,
    Unary,
    Var,
    compile_expr,
    eval_expr,
    expr_text,
    referenced_names,
    referenced_ports,
)
from de_fixpoint.values import (
    ABSENT,
    UNKNOWN,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
)
from de_fixpoint.network import Network

from test_parser import EXPRS, LITERALS, NAMES, PORTS, models

TRUE = Lit(BoolVal(True))


def ev(expr, ports=None, variables=None, parameters=None):
    return eval_expr(expr, variables or {}, parameters or {}, ports or {})


def test_variables_shadow_parameters():
    e = Var("x")
    assert ev(e, variables={"x": IntVal(1)}, parameters={"x": IntVal(9)}) == IntVal(1)
    assert ev(e, parameters={"x": IntVal(9)}) == IntVal(9)
    with pytest.raises(UnboundIdentifier):
        ev(e)


def test_is_present_three_cases():
    e = IsPresent("P")
    assert ev(e, ports={"P": Present(IntVal(5))}) == BoolVal(True)
    assert ev(e, ports={"P": ABSENT}) == BoolVal(False)
    with pytest.raises(UnknownPortRead):
        ev(e, ports={"P": UNKNOWN})
    with pytest.raises(UnknownPortRead):
        ev(e)  # port not in scope at all


def test_port_value_reads():
    e = PortValue("P")
    assert ev(e, ports={"P": Present(IntVal(5))}) == IntVal(5)
    with pytest.raises(AbsentPortRead):
        ev(e, ports={"P": ABSENT})
    with pytest.raises(UnknownPortRead):
        ev(e, ports={"P": UNKNOWN})


def test_arithmetic_and_comparison():
    x = Var("x")
    env = {"x": IntVal(4)}
    assert ev(Binary("+", x, Lit(IntVal(1))), variables=env) == IntVal(5)
    assert ev(Binary("*", x, x), variables=env) == IntVal(16)
    assert ev(Binary("-", Lit(IntVal(1)), x), variables=env) == IntVal(-3)
    assert ev(Binary("<", x, Lit(IntVal(5))), variables=env) == BoolVal(True)
    assert ev(Binary(">=", x, Lit(IntVal(4))), variables=env) == BoolVal(True)
    assert ev(Unary("-", x), variables=env) == IntVal(-4)
    assert ev(Unary("!", Lit(BoolVal(False)))) == BoolVal(True)


def test_time_arithmetic_stays_exact_and_non_negative():
    half = Lit(TimeVal(Fraction(1, 2)))
    tenth = Lit(TimeVal(Fraction(1, 10)))
    assert ev(Binary("+", half, tenth)) == TimeVal(Fraction(3, 5))
    assert ev(Binary("-", half, tenth)) == TimeVal(Fraction(2, 5))
    with pytest.raises(TypeMismatch):
        ev(Binary("-", tenth, half))  # would go negative
    with pytest.raises(TypeMismatch):
        ev(Binary("*", half, half))  # no time-by-time product


def test_mixed_type_operations_rejected():
    with pytest.raises(TypeMismatch):
        ev(Binary("+", Lit(IntVal(1)), Lit(TimeVal(Fraction(1)))))
    with pytest.raises(TypeMismatch):
        ev(Binary("<", Lit(IntVal(1)), Lit(TimeVal(Fraction(2)))))
    with pytest.raises(TypeMismatch):
        ev(Binary("==", Lit(IntVal(1)), Lit(StringVal("1"))))
    with pytest.raises(TypeMismatch):
        ev(Binary("&&", Lit(IntVal(1)), TRUE))


def test_equality_same_kind():
    assert ev(Binary("==", Lit(IntVal(2)), Lit(IntVal(2)))) == BoolVal(True)
    assert ev(Binary("!=", Lit(StringVal("a")), Lit(StringVal("b")))) == BoolVal(True)


def test_short_circuit_still_requires_known_operands():
    # Three-valued fixpoint semantics: a guard is only evaluated once
    # every port it mentions is known, so && is strict here.
    e = Binary("&&", Lit(BoolVal(False)), IsPresent("P"))
    with pytest.raises(UnknownPortRead):
        ev(e, ports={"P": UNKNOWN})


def test_referenced_ports_and_names():
    e = Binary("&&", IsPresent("A"), Binary("<", PortValue("B"), Var("n")))
    assert referenced_ports(e) == {"A", "B"}
    assert referenced_names(e) == {"n"}


def test_expr_text_parenthesizes_by_precedence():
    x, y = Var("x"), Var("y")
    assert expr_text(Binary("*", Binary("+", x, y), x)) == "(x + y) * x"
    assert expr_text(Binary("+", Binary("*", x, y), x)) == "x * y + x"
    assert expr_text(Binary("-", x, Binary("-", y, x))) == "x - (y - x)"
    assert expr_text(Unary("!", Binary("&&", x, y))) == "!(x && y)"
    assert expr_text(Binary("||", Binary("&&", x, y), x)) == "x && y || x"
    assert expr_text(Binary("&&", IsPresent("P"), Binary("<", PortValue("Q"), Lit(IntVal(2))))) == (
        "isPresent(P) && value(Q) < 2"
    )


def test_expr_text_literals_disambiguate_kind():
    assert expr_text(Lit(TimeVal(Fraction(1)))) == "1.0"
    assert expr_text(Lit(IntVal(1))) == "1"
    assert expr_text(Lit(BoolVal(False))) == "false"


# Compiled expressions against the reference evaluator. ------------------------


def outcome(thunk):
    """("value", the value) or (error type, message)."""
    try:
        return ("value", thunk())
    except EngineError as err:
        return (type(err), str(err))


def compiled(expr, variables, parameters, ports):
    """Compile against slots laid out behind unrelated ones, then run."""
    slots = {name: 3 + k for k, name in enumerate(variables)}
    values = (IntVal(-1),) * 3 + tuple(variables.values())
    pids = {name: 2 * k + 1 for k, name in enumerate(ports)}
    statuses = [UNKNOWN] * (2 * len(ports) + 1)
    for name, pid in pids.items():
        statuses[pid] = ports[name]
    fn = compile_expr(expr, slots, parameters, pids)
    return fn(statuses, values)


STATUSES = st.one_of(st.just(UNKNOWN), st.just(ABSENT), LITERALS.map(Present))
ENVIRONMENTS = st.dictionaries(NAMES, LITERALS, max_size=3)


@settings(max_examples=400)
@given(EXPRS, ENVIRONMENTS, ENVIRONMENTS, st.dictionaries(PORTS, STATUSES, max_size=2))
def test_compiled_expression_matches_eval_expr(expr, variables, parameters, ports):
    want = outcome(lambda: eval_expr(expr, variables, parameters, ports))
    got = outcome(lambda: compiled(expr, variables, parameters, ports))
    assert got == want


@pytest.mark.parametrize(
    "expr",
    [
        Binary("%", Lit(IntVal(1)), Lit(IntVal(2))),
        Binary("%", IsPresent("P"), Lit(IntVal(2))),
        Unary("~", Lit(BoolVal(True))),
        Unary("~", Var("ghost")),
        Binary("&&", Lit(BoolVal(False)), Lit(IntVal(3))),
        Binary("||", Lit(BoolVal(True)), Lit(IntVal(3))),
        Binary("+", Lit(TimeVal(Fraction(1, 3))), Lit(TimeVal(Fraction(1, 6)))),
        Binary("<", Lit(TimeVal(Fraction(1, 3))), Lit(TimeVal(Fraction(1, 6)))),
        "not an expression",
    ],
)
def test_compiled_expression_matches_eval_expr_off_the_grammar(expr):
    ports = {"P": Present(IntVal(1))}
    want = outcome(lambda: eval_expr(expr, {}, {}, ports))
    assert outcome(lambda: compiled(expr, {}, {}, ports)) == want


@given(models(), STATUSES)
def test_compiled_transitions_match_eval_expr(model, status):
    # The network compiles each transition of the machine M over its own
    # value slots and input port ids; Out is an output, never readable.
    network = Network(model)
    m = network.index[("T", "M")]
    node = model.inner[0]
    info = network.fsms[m]
    statuses = [UNKNOWN] * network.size
    statuses[info.in_ids["In"]] = status
    values = network.flatten(model)[1]
    env = {"In": status}
    # By source location, in canonical order: every transition of M, once.
    entries = [e for source in sorted({t.source for t in node.transitions}) for e in info.outgoing[source]]
    assert [entry.transition for entry in entries] == list(node.transitions)
    for entry in entries:
        t = entry.transition
        assert outcome(lambda: entry.guard(statuses, values)) == outcome(
            lambda: eval_expr(t.guard, node.variables, node.parameters, env)
        )
        for name, (fn, _) in entry.outputs.items():
            assert outcome(lambda: fn(statuses, values)) == outcome(
                lambda: eval_expr(t.outputs[name], node.variables, node.parameters, env)
            )
        assert [var for _, var, _ in entry.updates] == list(t.sets)
        for slot, var, fn in entry.updates:
            assert slot == network.slots[m].get(var)
            assert outcome(lambda: fn(statuses, values)) == outcome(
                lambda: eval_expr(t.sets[var], node.variables, node.parameters, env)
            )
