"""The trace's JSON text against ``json.dumps`` of its data form.

``executor.trace_json_text`` writes the text ``simulate --format json``
prints straight from the trace steps.  It must be byte for byte
``json.dumps(trace_json(trace), indent=2, sort_keys=True)``: on the
fixtures, on generated family models, and on generated models whose
variables hold booleans, integers, strings and times, ticking by
fractional amounts with microsteps between, including empty and
step-limited traces.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.executor import DEFAULT_MAX_STEPS, Iteration, Trace, TraceStep, simulate, trace_json, trace_json_text, trace_step_text
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.util import format_rational, ticks_text
from de_fixpoint.values import BoolVal, IntVal, StringVal, TimeVal, literal_text

from conftest import initial_state
from families import FEEDBACK, MODELS


def dumped(trace):
    return json.dumps(trace_json(trace), indent=2, sort_keys=True)


def assert_same_text(trace):
    assert trace_json_text(trace) == dumped(trace)


@pytest.mark.parametrize(
    "name",
    ["flat_traffic_light.model", "hierarchical_traffic_light.model", "hierarchical_traffic_light_mutant.model"],
)
def test_fixture_traces_write_as_json_dumps(name):
    assert_same_text(simulate(initial_state(name), time_bound=40))


@settings(max_examples=20)
@given(st.one_of(MODELS, FEEDBACK), st.integers(0, 12))
def test_family_traces_write_as_json_dumps(text, until):
    assert_same_text(simulate(initialize(parse_model(text)), time_bound=until))


def valued(period, offset, hop, name, amount, start):
    """A machine writing a bool, an int, a string and a time into its own
    variables and, through setters, into the composite's.

    A clock of ``period`` first ticking at ``offset`` drives it through a
    delay of ``hop`` (0 for a microstep).
    """
    name, amount = literal_text(StringVal(name)), literal_text(TimeVal(amount))
    machine = [
        "input Sec", "output B", "output N", "output S", "output Tm",
        f"var count = {start}", "var flag = false", f"var name = {name}", f"var when = {amount}",
        "initial a", "location b",
        "transition a -> b { guard isPresent(Sec) output B = !flag output N = count output S = name "
        f"output Tm = when set count = count - 3 set flag = !flag set when = when + {amount} }}",
        'transition b -> a { guard isPresent(Sec) output N = count * 2 set name = "" set count = count + 5 }',
    ]  # fmt: skip
    body = ["var b = false", "var n = 0", 'var s = "-"', "var t = 0.0"]
    body += [f"clock C {{ period = {literal_text(TimeVal(period))} offset = {offset} }}"]
    body += [f"delay D {{ delay = {literal_text(TimeVal(hop))} }}", "fsm M {"] + machine + ["}"]
    for port, var in (("B", "b"), ("N", "n"), ("S", "s"), ("Tm", "t")):
        body += [f'setvar Set{port} {{ target = "{var}" }}', f"connect M.{port} -> Set{port}.input"]
    body += ["connect C.output -> D.input", "connect D.output -> M.Sec"]
    return "format 1\n\ncomposite T {\n" + "".join(f"  {line}\n" for line in body) + "}\n"


RATIONALS = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(5, 3), Fraction(2)])
VALUED = st.builds(
    valued,
    RATIONALS,
    st.integers(0, 2),
    st.sampled_from([Fraction(0), Fraction(1, 4)]),
    st.text(max_size=6),
    RATIONALS,
    st.integers(-3, 3),
)


@settings(max_examples=40)
@given(VALUED, st.integers(0, 8), st.sampled_from([1, 5, 30, DEFAULT_MAX_STEPS]))
def test_valued_traces_write_as_json_dumps(text, until, max_steps):
    assert_same_text(simulate(initialize(parse_model(text)), time_bound=until, max_steps=max_steps))


def test_the_generated_traces_reach_every_kind_of_step_and_value():
    text = valued(Fraction(1, 2), 1, Fraction(0), 'é"\\\n', Fraction(3, 4), -2)
    trace = simulate(initialize(parse_model(text)), time_bound=3, max_steps=20)
    assert trace.truncated
    records = trace_json(trace)
    assert {r["kind"]["type"] for r in records} == {"tick", "microstep", "iteration"}
    assert any(r["kind"].get("dt") == "1/2" for r in records)
    written = [v for r in records for delta in r["changedVariables"].values() for v in delta.values()]
    assert {type(v) for v in written} == {bool, int, str, dict}
    assert_same_text(trace)


def test_changes_are_written_in_key_order_whatever_their_order():
    state = initial_state("flat_traffic_light.model")
    changes = {"T.M": {"b": BoolVal(True), "a": StringVal("\u00e9")}, "T": {"z": IntVal(-1), "y": TimeVal(Fraction(1, 3))}}
    assert_same_text(Trace(state, [TraceStep(Iteration(), state, changes)]))


def test_an_empty_trace_is_an_empty_list():
    trace = Trace(initial_state("flat_traffic_light.model"), [])
    assert trace_json_text(trace) == dumped(trace) == "[]"


@given(st.integers(0, 10**6), st.integers(1, 10**4))
def test_ticks_text_is_the_rational_text(ticks, base):
    assert ticks_text(ticks, base) == format_rational(Fraction(ticks, base)) == str(Fraction(ticks, base))


def test_text_steps_show_time_as_before():
    text = valued(Fraction(2, 3), 0, Fraction(1, 4), "x", Fraction(1, 3), 0)
    for ts in simulate(initialize(parse_model(text)), time_bound=4).steps:
        assert trace_step_text(ts).startswith(f"t={ts.state.elapsed} m={ts.state.microstep_of_instant} ")
