"""Expression evaluation against ports/variables, and source printing.

Evaluation is tested on the compiled closures, against the reference
tree walk in ``expr_ref.py``, always in a scope that validation accepts:
every name bound and every port an input.  Anything else never reaches
the compiler; the front-door tests at the end check that.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import (
    AbsentPortRead,
    EngineError,
    TypeMismatch,
    UnknownPortRead,
    ValidationError,
)
from de_fixpoint.expr import (
    _BINARY,
    _PRECEDENCE,
    _UNARY,
    Binary,
    IsPresent,
    Lit,
    PortValue,
    Unary,
    Var,
    compile_expr,
    expr_text,
    kind_of,
    references,
)
from de_fixpoint.model import COMPOSITE, FSM, IN, OUT, ActorNode, Port, Transition
from de_fixpoint.parser import _ModelParser
from de_fixpoint.postfire import initialize
from de_fixpoint.values import TRUE as TRUE_VALUE
from de_fixpoint.values import (
    ABSENT,
    FALSE,
    UNKNOWN,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
)
from de_fixpoint.fire import _machine
from de_fixpoint.network import Network

from expr_ref import UnboundIdentifier, eval_expr
from test_parser import DECLARED, EXPRS, LITERALS, LOCATIONS, NAMES, PORTS

TRUE = Lit(BoolVal(True))


def ev(expr, ports=None, variables=None, parameters=None):
    """``expr`` compiled and run; the reference must give the same outcome."""
    args = (expr, variables or {}, parameters or {}, ports or {})
    assert outcome(lambda: compiled(*args)) == outcome(lambda: eval_expr(*args))
    return compiled(*args)


def test_variables_shadow_parameters():
    e = Var("x")
    assert ev(e, variables={"x": IntVal(1)}, parameters={"x": IntVal(9)}) == IntVal(1)
    assert ev(e, parameters={"x": IntVal(9)}) == IntVal(9)
    # Only the reference can meet an unbound name: validation keeps it
    # from the compiler (see the front-door tests).
    with pytest.raises(UnboundIdentifier):
        eval_expr(e, {}, {}, {})


def test_is_present_three_cases():
    e = IsPresent("P")
    assert ev(e, ports={"P": Present(IntVal(5))}) == BoolVal(True)
    assert ev(e, ports={"P": ABSENT}) == BoolVal(False)
    with pytest.raises(UnknownPortRead):
        ev(e, ports={"P": UNKNOWN})


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


def test_every_operator_but_and_or_has_a_row():
    # The rows are the operators the model parser builds: every binary
    # one but && and ||, which have a closure of their own, and every
    # prefix.
    assert set(_BINARY) == set(_PRECEDENCE) - {"&&", "||"}
    assert set(_UNARY) == set(_ModelParser.prefix)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
@pytest.mark.parametrize("make", [IntVal, lambda n: TimeVal(Fraction(n, 3))], ids=["int", "time"])
def test_comparisons_of_integers_and_times(op, make):
    for a, b in ((1, 2), (2, 2), (2, 1)):
        want = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op](a, b)
        assert ev(Binary(op, Lit(make(a)), Lit(make(b)))) == BoolVal(want)


@pytest.mark.parametrize(
    "expr, message",
    [
        (Binary("==", Lit(IntVal(1)), TRUE), "cannot compare 1 with true"),
        (Binary("!=", Lit(TimeVal(Fraction(1, 2))), Lit(IntVal(1))), "cannot compare 1/2 with 1"),
        (Binary("<", Lit(StringVal("a")), Lit(StringVal("a"))), 'cannot order "a" and "a"'),
        (Binary(">=", TRUE, TRUE), "cannot order true and true"),
        (Binary("*", Lit(TimeVal(Fraction(1, 2))), Lit(TimeVal(Fraction(1, 2)))), "cannot apply '*' to 1/2 and 1/2"),
        (Binary("+", TRUE, TRUE), "cannot apply '+' to true and true"),
        (Binary("-", Lit(TimeVal(Fraction(1, 2))), Lit(IntVal(1))), "cannot apply '-' to 1/2 and 1"),
        (Binary("-", Lit(TimeVal(Fraction(1, 10))), Lit(TimeVal(Fraction(1, 2)))), "time subtraction went negative"),
        (Unary("!", Lit(IntVal(1))), "'!' needs a boolean, got 1"),
        (Unary("-", TRUE), "unary '-' needs an integer, got true"),
        (Unary("-", Lit(TimeVal(Fraction(1, 2)))), "unary '-' needs an integer, got 1/2"),
        (Binary("&&", TRUE, Lit(IntVal(1))), "'&&' needs a boolean, got 1"),
        (Binary("||", Lit(IntVal(1)), TRUE), "'||' needs a boolean, got 1"),
        (Binary("&&", Lit(StringVal("a")), Lit(BoolVal(False))), "'&&' needs a boolean, got \"a\""),
    ],
)
def test_operands_an_operator_does_not_take_raise_what_they_always_did(expr, message):
    with pytest.raises(TypeMismatch) as raised:
        ev(expr)
    assert str(raised.value) == message


def test_a_left_operand_that_decides_decides_alone():
    # false && 1 is false and true || 1 is true: the right operand's kind
    # is not checked.  Every boolean result is one of the two singletons.
    one = Lit(IntVal(1))
    assert ev(Binary("&&", Lit(BoolVal(False)), one)) is FALSE
    assert ev(Binary("||", Lit(BoolVal(True)), one)) is TRUE_VALUE
    for op in ("&&", "||"):
        for a in (False, True):
            for b in (False, True):
                got = ev(Binary(op, Lit(BoolVal(a)), Lit(BoolVal(b))))
                assert got is (TRUE_VALUE if (a and b if op == "&&" else a or b) else FALSE)


def test_short_circuit_still_requires_known_operands():
    # Three-valued fixpoint semantics: a guard is only evaluated once
    # every port it mentions is known, so && is strict here.
    e = Binary("&&", Lit(BoolVal(False)), IsPresent("P"))
    with pytest.raises(UnknownPortRead):
        ev(e, ports={"P": UNKNOWN})


def test_referenced_ports_and_names():
    e = Binary("&&", IsPresent("A"), Binary("<", PortValue("B"), Var("n")))
    assert references(e) == ({"n"}, {"A", "B"})
    with pytest.raises(ValueError, match=r"^uses unknown operator '%'$"):
        references(Binary("&&", TRUE, Binary("%", Var("n"), Var("n"))))
    with pytest.raises(ValueError, match=r"^uses unknown unary operator '~'$"):
        references(Unary("~", TRUE))
    with pytest.raises(ValueError, match=r"^is not an expression: 'n'$"):
        references(Unary("!", "n"))


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
    """Compile against slots laid out behind unrelated ones, then run.
    The ids compiling gives are those of the ports ``references`` finds,
    each once."""
    slots = {name: 3 + k for k, name in enumerate(variables)}
    values = (IntVal(-1),) * 3 + tuple(variables.values())
    pids = {name: 2 * k + 1 for k, name in enumerate(ports)}
    statuses = [UNKNOWN] * (2 * len(ports) + 1)
    for name, pid in pids.items():
        statuses[pid] = ports[name]
    fn, reads = compile_expr(expr, slots, parameters, pids)
    assert sorted(reads) == sorted(pids[name] for name in references(expr)[1])
    return fn(statuses, values)


STATUSES = st.one_of(st.just(UNKNOWN), st.just(ABSENT), LITERALS.map(Present))
ENVIRONMENTS = st.dictionaries(NAMES, LITERALS, max_size=3)


@st.composite
def scopes(draw):
    """An expression with variables, parameters and port statuses that
    bind every name and port it reads, as validation demands."""
    expr = draw(EXPRS)
    names, ports = references(expr)
    variables, parameters = draw(ENVIRONMENTS), draw(ENVIRONMENTS)
    for name in sorted(names - variables.keys() - parameters.keys()):
        (variables if draw(st.booleans()) else parameters)[name] = draw(LITERALS)
    statuses = draw(st.dictionaries(PORTS, STATUSES, max_size=2))
    for port in sorted(ports - statuses.keys()):
        statuses[port] = draw(STATUSES)
    return expr, variables, parameters, statuses


@settings(max_examples=400)
@given(scopes())
def test_compiled_expression_matches_eval_expr(scope):
    want = outcome(lambda: eval_expr(*scope))
    got = outcome(lambda: compiled(*scope))
    assert got == want


#: Values of each kind, for names whose kind ``kind_of`` is told.
VALUES_OF = {
    BoolVal: st.booleans().map(BoolVal),
    IntVal: st.integers(-(10**6), 10**6).map(IntVal),
    TimeVal: st.fractions(0, 1000, max_denominator=40).map(TimeVal),
    StringVal: st.text(max_size=3).map(StringVal),
}


#: By result kind, the binary operators that give it and the kind of the
#: operands each takes, as README lists them.  Time subtraction, which
#: raises when it goes negative, gives no kind.
RULES = {
    BoolVal: [(op, kind) for op in ("==", "!=") for kind in VALUES_OF]
    + [(op, kind) for op in ("<", "<=", ">", ">=") for kind in (IntVal, TimeVal)]
    + [("&&", BoolVal), ("||", BoolVal)],
    IntVal: [("+", IntVal), ("-", IntVal), ("*", IntVal)],
    TimeVal: [("+", TimeVal)],
    StringVal: [],
}
PREFIXES = {BoolVal: ["!"], IntVal: ["-"], TimeVal: [], StringVal: []}


@st.composite
def kinded_exprs(draw):
    """The kinds of some names, a kind, and two expressions of that kind
    by ``RULES``, two operators deep.  Their leaves are literals, the
    names and ``isPresent(P)``, but no ``value()``, which may give any
    kind."""
    kinds = draw(st.dictionaries(NAMES, st.sampled_from(list(VALUES_OF)), max_size=3))
    typed = {}
    for kind in VALUES_OF:
        leaves = [VALUES_OF[kind].map(Lit)] + [st.just(Var(name)) for name in sorted(kinds) if kinds[name] is kind]
        if kind is BoolVal:
            leaves.append(st.just(IsPresent("P")))
        typed[kind] = st.one_of(leaves)
    for _ in range(2):
        typed = {
            kind: st.one_of(
                [typed[kind]]
                + [st.builds(Binary, st.just(op), typed[operands], typed[operands]) for op, operands in RULES[kind]]
                + [st.builds(Unary, st.just(op), typed[kind]) for op in PREFIXES[kind]]
            )
            for kind in VALUES_OF
        }
    kind = draw(st.sampled_from(list(VALUES_OF)))
    return kinds, kind, draw(typed[kind]), draw(typed[kind])


def subexpressions(expr):
    pending = [expr]
    for node in pending:
        if isinstance(node, Binary):
            pending += (node.left, node.right)
        elif isinstance(node, Unary):
            pending.append(node.operand)
    return pending


@given(kinded_exprs(), st.data())
def test_a_kind_that_kind_of_proves_is_what_evaluation_gives(case, data):
    # kind_of gives each expression built by README's rules its kind.
    # Each subexpression of it that kind_of gives a kind K, and each
    # operator applied to it (and to the other expression of its kind)
    # that kind_of gives a kind K, evaluates to a K without raising,
    # whatever values of their kinds the names hold, as variables or as
    # parameters, and whether P is present or absent.
    kinds, kind, expr, other = case
    assert kind_of(expr, kinds) is kind
    candidates = subexpressions(expr) + [Unary(op, expr) for op in _UNARY] + [Binary(op, expr, other) for op in _PRECEDENCE]
    proven = [(node, kind_of(node, kinds)) for node in candidates]
    proven = [(node, proof) for node, proof in proven if proof is not None]
    for _ in range(3):
        variables = {name: data.draw(VALUES_OF[of]) for name, of in kinds.items()}
        parameters = {name: variables.pop(name) for name in sorted(variables) if data.draw(st.booleans())}
        ports = {"P": data.draw(st.one_of(st.just(ABSENT), LITERALS.map(Present)))}
        for node, proof in proven:
            assert compiled(node, variables, parameters, ports).__class__ is proof


def lone_machine(guard=TRUE, outputs=None, sets=None):
    """T holding one machine M, with input P and output Out, whose one
    transition has this guard, these outputs and these updates."""
    m = ActorNode(
        "M",
        FSM,
        ports=(Port("P", IN), Port("Out", OUT)),
        locations=("s", "t"),
        init_location="s",
        variables={"v": IntVal(0)},
        transitions=(Transition("s", "t", guard, outputs or {}, sets or {}),),
    )
    return ActorNode("T", COMPOSITE, inner=(m,))


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
    # In the grammar but mistyped, an expression compiles and fails or
    # computes as the reference does.  Off the grammar, it never reaches
    # the compiler: validation rejects its machine.
    try:
        references(expr)
    except ValueError as err:
        with pytest.raises(ValidationError) as raised:
            Network(lone_machine(expr))
        assert raised.value.problems == (f"T.M: guard of transition s->t {err}",)
        return
    ports = {"P": Present(IntVal(1))}
    want = outcome(lambda: eval_expr(expr, {}, {}, ports))
    assert outcome(lambda: compiled(expr, {}, {}, ports)) == want


def exprs(names):
    """Expressions in the grammar that read only ``names`` and the input In."""
    leaves = [LITERALS.map(Lit), st.sampled_from([IsPresent("In"), PortValue("In")])]
    if names:
        leaves.append(st.sampled_from(names).map(Var))
    return st.recursive(
        st.one_of(leaves),
        lambda inner: st.one_of(
            st.builds(Unary, st.sampled_from(["!", "-"]), inner),
            st.builds(Binary, st.sampled_from(sorted(_PRECEDENCE)), inner, inner),
        ),
        max_leaves=10,
    )


@st.composite
def valid_models(draw):
    """T holding a machine M whose expressions validate: they read M's
    variables and parameters and its input In, write Out and set M's
    variables."""
    variables, parameters = draw(DECLARED), draw(DECLARED)
    expr = exprs(sorted(variables.keys() | parameters.keys()))
    updates = st.dictionaries(st.sampled_from(sorted(variables)), expr, max_size=2) if variables else st.just({})
    transitions = st.builds(
        Transition,
        LOCATIONS,
        LOCATIONS,
        expr,
        st.dictionaries(st.just("Out"), expr, max_size=1),
        updates,
    )
    fsm = ActorNode(
        name="M",
        kind=FSM,
        ports=(Port("In", IN), Port("Out", OUT)),
        locations=("s", "t"),
        init_location="s",
        parameters=parameters,
        variables=variables,
        transitions=tuple(draw(st.lists(transitions, max_size=3))),
    )
    return ActorNode(name="T", kind=COMPOSITE, inner=(fsm,))


@given(valid_models(), STATUSES)
def test_compiled_transitions_match_eval_expr(model, status):
    # The engine's machine compiles each transition of M over its own
    # value slots and input port ids.
    network = Network(model)
    m = network.index[("T", "M")]
    node = model.inner[0]
    machine = _machine(network, m)
    statuses = [UNKNOWN] * network.size
    statuses[network.ids[(("T", "M"), "In", IN)]] = status
    values = network.flatten()[1]
    env = {"In": status}
    # By source location, in canonical order: every transition of M, once.
    entries = [e for source in sorted({t.source for t in node.transitions}) for e in machine.outgoing[source]]
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
        assert [name for _, name, _ in entry.updates] == [f"T.M.{var}" for var in t.sets]
        for (slot, _, fn), var in zip(entry.updates, t.sets):
            assert slot == network.slots[m][var]
            assert outcome(lambda: fn(statuses, values)) == outcome(
                lambda: eval_expr(t.sets[var], node.variables, node.parameters, env)
            )


# The front door. ----------------------------------------------------------------

#: What the compiler has no branch for, and the problem validation reports.
OFF_SCOPE = {
    "binary-%": (Binary("%", Lit(IntVal(1)), Lit(IntVal(2))), "uses unknown operator '%'"),
    "unary-~": (Unary("~", TRUE), "uses unknown unary operator '~'"),
    "str": ("x > 1", "is not an expression: 'x > 1'"),
    "unbound-name": (Var("ghost"), "references unbound name 'ghost'"),
    "output-port": (IsPresent("Out"), "reads unknown port 'Out'"),
}
DOORS = (Network, initialize)


def problems_at_each_door(top):
    """The problems each door's ValidationError lists, one tuple per door."""
    found = []
    for door in DOORS:
        with pytest.raises(ValidationError) as raised:
            door(top)
        found.append(raised.value.problems)
    return found


@pytest.mark.parametrize("case", sorted(OFF_SCOPE))
def test_every_door_rejects_what_the_compiler_cannot_take(case):
    bad, problem = OFF_SCOPE[case]
    top = lone_machine(guard=bad, outputs={"Out": bad}, sets={"v": bad})
    want = tuple(f"T.M: {place} of transition s->t {problem}" for place in ("guard", "output", "update"))
    assert problems_at_each_door(top) == [want] * len(DOORS)


def test_every_door_rejects_an_update_of_an_undeclared_variable():
    top = lone_machine(sets={"ghost": TRUE})
    want = ("T.M: transition s->t sets unknown variable 'ghost'",)
    assert problems_at_each_door(top) == [want] * len(DOORS)
