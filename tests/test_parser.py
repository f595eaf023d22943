"""Model text format: round trips, canonical printing, and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from de_fixpoint.errors import ParseError
from de_fixpoint.expr import _PRECEDENCE, Binary, IsPresent, Lit, PortValue, Unary, Var
from de_fixpoint.model import COMPOSITE, FSM, IN, OUT, ActorNode, Port, Transition
from de_fixpoint.parser import parse_model, print_model
from de_fixpoint.values import BoolVal, IntVal, StringVal, TimeVal

from conftest import load_model, model_path, resolve

FIXTURES = [
    "flat_traffic_light.model",
    "hierarchical_traffic_light.model",
    "hierarchical_traffic_light_mutant.model",
    "causality_cycle.model",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_print_then_parse_is_identity(name):
    model = load_model(name)
    assert parse_model(print_model(model)) == model


@pytest.mark.parametrize("name", FIXTURES)
def test_printing_is_idempotent(name):
    model = load_model(name)
    once = print_model(model)
    assert print_model(parse_model(once)) == once


def test_comments_and_layout_are_not_semantics():
    a = parse_model(
        """format 1
// leading comment
composite T { // trailing
  clock C {
    period = 2 // every other
  }
}
"""
    )
    b = parse_model("format 1\ncomposite T { clock C { period = 2 } }")
    assert a == b


def test_literal_forms():
    model = parse_model(
        """format 1
composite T {
  k_int = 3
  k_neg = -3
  k_time = 1.5
  k_frac = 1/3
  k_zero = 0.0
  k_bool = true
  k_off = false
  k_str = "a\\"b\\\\c"
}
"""
    )
    p = model.parameters
    assert p["k_int"] == IntVal(3)
    assert p["k_neg"] == IntVal(-3)
    assert p["k_time"] == TimeVal(Fraction(3, 2))
    assert p["k_frac"] == TimeVal(Fraction(1, 3))
    assert p["k_zero"] == TimeVal(Fraction(0))
    assert p["k_bool"] == BoolVal(True)
    assert p["k_off"] == BoolVal(False)
    assert p["k_str"] == StringVal('a"b\\c')


def test_fixed_ports_are_implied_not_written():
    model = load_model("flat_traffic_light.model")
    delay = resolve(model, ("FlatTrafficLight", "TimedDelay1"))
    assert delay.port("input", IN) is not None
    assert delay.port("output", OUT) is not None
    clock = resolve(model, ("FlatTrafficLight", "Clock"))
    assert clock.port("output", OUT) is not None
    text = print_model(model)
    assert "input input" not in text
    assert "output output" not in text


def test_fixed_port_kinds_reject_port_declarations():
    with pytest.raises(ParseError) as err:
        parse_model("format 1\ncomposite T { clock C { output tick\nperiod = 1 } }")
    assert "clock" in str(err.value)


def test_guard_expression_shapes():
    model = parse_model(
        """format 1
composite T {
  fsm M {
    input A
    input B
    var n = 0
    initial s
    transition s -> s { guard isPresent(A) && !isPresent(B) || n < 3 }
    transition s -> s { guard value(A) == 2 }
  }
}
"""
    )
    fsm = resolve(model, ("T", "M"))
    first, second = fsm.transitions  # sorted by guard text
    assert isinstance(first.guard, Binary) and first.guard.op == "||"
    assert isinstance(second.guard, Binary) and second.guard.op == "=="


def test_transition_defaults_and_payload():
    model = parse_model(
        """format 1
composite T {
  fsm M {
    input A
    output Out
    var n = 0
    initial s
    transition s -> s { output Out = n + 1 set n = n + 1 }
  }
}
"""
    )
    (t,) = resolve(model, ("T", "M")).transitions
    assert t.guard == Lit(BoolVal(True))
    assert set(t.outputs) == {"Out"}
    assert set(t.sets) == {"n"}


def test_modal_shape_round_trips():
    model = load_model("hierarchical_traffic_light.model")
    text = print_model(model)
    modal_block = text[text.index("modal TrafficLight") :]
    assert "controller Ctrl" in modal_block
    assert "refine normal -> normal" in modal_block
    # Implied wiring and coupled controller ports stay implied.
    assert "connect" not in modal_block.split("composite", 1)[0]
    reparsed = resolve(parse_model(text), ("HierarchicalTrafficLight", "TrafficLight"))
    original = resolve(model, ("HierarchicalTrafficLight", "TrafficLight"))
    assert reparsed == original


def test_connections_fan_out_and_sort():
    model = parse_model(
        """format 1
composite T {
  clock C { period = 1 }
  fsm M {
    input X
    initial s
  }
  fsm N {
    input Y
    initial s
  }
  connect C.output -> N.Y, M.X
}
"""
    )
    (conn,) = model.connections
    assert [f"{s!r}" for s in conn.sinks] == ["M.X", "N.Y"]


def test_parent_endpoints():
    model = parse_model(
        """format 1
composite T {
  input Go
  output Done
  composite Inner {
    input Go
    output Done
    connect parent.Go -> parent.Done
  }
  connect parent.Go -> Inner.Go
  connect Inner.Done -> parent.Done
}
"""
    )
    inner = resolve(model, ("T", "Inner"))
    (conn,) = inner.connections
    assert conn.source.actor == () and conn.sinks[0].actor == ()


# Error reporting. -------------------------------------------------------------


def err_of(text):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    return str(err.value)


def test_missing_header():
    assert "format" in err_of("composite T { }")


def test_unknown_kind():
    assert "unexpected 'widget'" in err_of("format 1\ncomposite T { widget W { } }")


def test_duplicate_parameter():
    msg = err_of("format 1\ncomposite T { clock C { period = 1\nperiod = 2 } }")
    assert "period" in msg


def test_modal_rejects_connect_blocks():
    msg = err_of(
        """format 1
composite T {
  modal M {
    fsm Ctrl { initial a }
    fsm R { initial s }
    controller Ctrl
    refine a -> R
    connect parent.X -> Ctrl.X
  }
}
"""
    )
    assert "no explicit connections" in msg


def test_error_position_is_line_and_column():
    msg = err_of("format 1\ncomposite T {\n  clock C { period = }\n}")
    assert msg.startswith("3:")


def test_unterminated_block():
    assert "unterminated actor block" in err_of("format 1\ncomposite T {")


def test_unterminated_string():
    assert "string" in err_of('format 1\ncomposite T { k = "oops }')


def test_vars_only_where_state_lives():
    msg = err_of("format 1\ncomposite T { clock C { var n = 0\nperiod = 1 } }")
    assert "var" in msg


def test_negative_time_literal_rejected():
    assert "negative" in err_of("format 1\ncomposite T { k = -1.5 }")


def test_dump_is_canonical_for_fixture_files():
    # The committed fixtures are already in printed form: dump changes nothing.
    for name in FIXTURES:
        with open(model_path(name), encoding="utf-8") as handle:
            text = handle.read()
        body = text[text.index("format 1") :]
        assert print_model(parse_model(text)) == body


# Round trips over generated models. --------------------------------------------

NAMES = st.sampled_from(["n", "count", "Go", "x_1"])
PORTS = st.sampled_from(["In", "Out"])
STRINGS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).map(StringVal)
LITERALS = st.one_of(
    st.integers(0, 10**6).map(IntVal),  # '-3' in an expression is Unary('-', 3)
    st.fractions(0, 1000, max_denominator=40).map(TimeVal),
    st.booleans().map(BoolVal),
    STRINGS,
)
EXPRS = st.recursive(
    st.one_of(
        LITERALS.map(Lit), NAMES.map(Var), PORTS.map(IsPresent), PORTS.map(PortValue)
    ),
    lambda inner: st.one_of(
        st.builds(Unary, st.sampled_from(["!", "-"]), inner),
        st.builds(Binary, st.sampled_from(sorted(_PRECEDENCE)), inner, inner),
    ),
    max_leaves=10,
)
DECLARED = st.dictionaries(NAMES, st.one_of(LITERALS, st.integers(-99, -1).map(IntVal)), max_size=3)
LOCATIONS = st.sampled_from(["s", "t"])
TRANSITIONS = st.builds(
    Transition,
    LOCATIONS,
    LOCATIONS,
    EXPRS,
    st.dictionaries(PORTS, EXPRS, max_size=2),
    st.dictionaries(NAMES, EXPRS, max_size=2),
)


@st.composite
def models(draw):
    fsm = ActorNode(
        name="M",
        kind=FSM,
        ports=(Port("In", IN), Port("Out", OUT)),
        locations=("s", "t"),
        init_location="s",
        variables=draw(DECLARED),
        transitions=tuple(draw(st.lists(TRANSITIONS, max_size=3))),
    )
    return ActorNode(
        name="T", kind=COMPOSITE, parameters=draw(DECLARED), variables=draw(DECLARED), inner=(fsm,)
    )


@given(models())
def test_generated_models_round_trip(model):
    text = print_model(model)
    assert parse_model(text) == model
    assert print_model(parse_model(text)) == text
