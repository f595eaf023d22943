"""Instant plans: an instant runs only the machines its events can reach.

Each instant's resolution is checked against the copy-rule reference
(``fixpoint_ref``), which runs every live machine under a shuffled
schedule: statuses, decisions, applications and stalled ports must be
equal, and where the reference raises, the engine must raise the same
error (type and message) at the same step.  The hand-built models each
hold one machine that no event reaches and that the engine must
still run, because it raises or could: leaving it out would change the
run.  Property tests here set no example count of their own, so that
the test profile decides it (``thorough`` runs 300 per test).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from de_fixpoint import build_state_graph, initialize, parse_model
from de_fixpoint import network as network_module
from de_fixpoint.errors import CausalityCycle, TypeMismatch, ValidationError
from de_fixpoint.events import Event, EventQueue, QueueEntry
from de_fixpoint.executor import step
from de_fixpoint.expr import Binary, IsPresent, Lit, PortValue, Unary, Var, guards_cannot_raise, kind_of
from de_fixpoint.fire import clear_ports, compute_fixpoint, deliver_events
from de_fixpoint.model import PortRef, Transition
from de_fixpoint.network import CompiledTransition
from de_fixpoint.state import SystemState, collect_variables
from de_fixpoint.values import UNKNOWN, BoolVal, IntVal, StringVal, TimeVal

import families
from conftest import initial_state
from fixpoint_ref import reference_fixpoint

FIXTURES = (
    "flat_traffic_light.model",
    "hierarchical_traffic_light.model",
    "hierarchical_traffic_light_mutant.model",
    "causality_cycle.model",
)


def outcome(resolve):
    """What ``resolve()`` returns, or the (type, message) of what it raises."""
    try:
        return resolve()
    except Exception as error:
        return type(error), str(error)


def engine(state, bottom, events=None):
    result = compute_fixpoint(state, bottom, events=events)
    return result.state.statuses, result.decisions, result.applications, result.stalled_ports


def run_as_reference(state, steps, rng, bottom):
    """Step ``state`` up to ``steps`` times, with ``bottom`` as the absent
    fallback.  At every due instant both starts of compute_fixpoint must
    resolve as the reference does under an order ``rng`` shuffles, or
    raise what it raises; a raise must come from the step too, and ends
    the run.  Returns (due instants seen, (step index, error type,
    message) of the raise, or None)."""
    seen = 0
    for k in range(steps):
        if not state.entries:
            break
        time, microstep, events = state.entries[0]
        if (time, microstep) == (0, 0):
            seen += 1
            popped = state.requeued(state.entries[1:], state.now, state.microstep_of_instant)
            prepared = deliver_events(clear_ports(popped), events)
            expected = outcome(lambda: reference_fixpoint(prepared, bottom, rng))
            assert outcome(lambda: engine(popped, bottom, events)) == expected
            assert outcome(lambda: engine(prepared, bottom)) == expected
            if len(expected) == 2:
                assert outcome(lambda: step(state, bottom)) == expected
                assert_plans_count_their_starts(state.network)
                return seen, (k, *expected)
        state, _ = step(state, bottom)
    assert_plans_count_their_starts(state.network)
    return seen, None


def assert_plans_count_their_starts(network):
    """Every plan built counts, as resolved, exactly the live ports its
    start resolves; the fixed point finds a stall by that count."""
    for mode in network.modes.values():
        if mode.rules is not None:
            for plan in mode.rules.plans.values():
                assert plan.absent == sum(plan.start[pid] is not UNKNOWN for pid in mode.rules.ports)


# Fixtures and generated models. -------------------------------------------------


@pytest.mark.parametrize("bottom", [False, True])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixtures_run_as_the_reference(fixture, bottom):
    seen, raised = run_as_reference(initial_state(fixture), 200, random.Random(fixture), bottom)
    if fixture == "causality_cycle.model" and not bottom:
        assert (seen, raised[:2]) == (1, (0, CausalityCycle))
    else:
        assert raised is None and seen >= 20


@given(families.MODELS, st.integers(0, 2**32 - 1), st.booleans())
def test_generated_models_run_as_the_reference(text, seed, bottom):
    seen, raised = run_as_reference(initialize(parse_model(text)), 120, random.Random(seed), bottom)
    assert raised is None and seen >= 10


@given(families.FEEDBACK, st.integers(0, 2**32 - 1), st.booleans())
def test_feedback_models_run_as_the_reference(text, seed, bottom):
    seen, raised = run_as_reference(initialize(parse_model(text)), 60, random.Random(seed), bottom)
    assert raised is None and seen >= 10


# Hand-built models: one machine that no event reaches. --------------------------


def beside_a_clock(machine: str, extra: str = "") -> str:
    """A model in which a clock drives Busy every tick, beside machine M."""
    return f"""format 1

composite Top {{
  clock Clock {{
    period = 1
  }}
  fsm Busy {{
    input Sec
    output Out
    initial s
    transition s -> s {{ guard isPresent(Sec) output Out = 1 }}
  }}
  fsm M {{
{machine}
  }}
{extra}
  connect Clock.output -> Busy.Sec
}}
"""


def raised_in_run(state, bottom=False, steps=40):
    """The (step index, error type, message) of the step that raises,
    the same in the engine and the reference; None when none does."""
    _, raised = run_as_reference(state, steps, random.Random(5), bottom)
    return raised


def test_a_mistyped_guard_reached_by_nothing_still_raises():
    # (a) M's In is never written; its guard adds an integer and a boolean.
    text = beside_a_clock("""    input In
    var x = 0
    initial s
    transition s -> s { guard isPresent(In) && x > 5 + true }""")
    state = initialize(parse_model(text))
    assert raised_in_run(state) == (0, TypeMismatch, "cannot apply '+' to 5 and true")


def test_a_non_boolean_guard_reached_by_nothing_still_raises():
    # (b)
    text = beside_a_clock("""    input In
    initial s
    transition s -> s { guard 1 }""")
    state = initialize(parse_model(text))
    assert raised_in_run(state) == (0, ValidationError, "Top.M: guard of s->s is not boolean")


def test_an_update_that_changes_a_variable_kind_keeps_its_machine_running():
    # (c) Rare first ticks at t = 1: M fires and sets x to a boolean.  At
    # t = 2 only Clock ticks, so nothing reaches M, and its guard orders a
    # boolean.
    text = beside_a_clock(
        """    input In
    var x = 0
    initial s
    transition s -> s { guard isPresent(In) && x < 3 set x = true }""",
        """  clock Rare {
    period = 3
    offset = 1
  }
  connect Rare.output -> M.In""",
    )
    state = initialize(parse_model(text))
    assert raised_in_run(state) == (4, TypeMismatch, "cannot order true and 3")


SHARED_SINK = """    input In
    output Out
    initial s
    transition s -> s { guard isPresent(In) output Out = 1 }"""

READER = """  fsm N {
    input In
    var got = 0
    initial s
    transition s -> s { guard isPresent(In) set got = value(In) }
  }
  connect M.Out -> N.In"""


def test_an_output_shared_with_a_second_driver_keeps_its_machine_running(monkeypatch):
    # (d) Validation rejects a port with two writers, so the network is
    # built with it patched out.  When Other ticks (first at t = 1), N.In
    # is present, and M, which nothing reaches, drives it absent.
    text = beside_a_clock(
        SHARED_SINK,
        READER
        + """
  clock Other {
    period = 2
    offset = 1
  }
  connect Other.output -> N.In""",
    )
    monkeypatch.setattr(network_module, "validate", lambda top: None)
    state = initialize(parse_model(text))
    assert raised_in_run(state) == (2, AssertionError, "port Top.N.In(in) driven to two different statuses")


TWO_MACHINES_ONE_SINK = """format 1

composite Top {
  clock Clock {
    period = 1
  }
  fsm A {
    input Sec
    output Out
    initial s
    transition s -> s { guard isPresent(Sec) output Out = 1 }
  }
  fsm B {
    input Sec
    initial s
    transition s -> s { guard isPresent(Sec) && 1 + true > 0 }
  }
  fsm C {
    input In
    output Out
    initial s
    transition s -> s { guard isPresent(In) output Out = 2 }
  }
  fsm N {
    input In
    initial s
    transition s -> s { guard isPresent(In) }
  }
  connect Clock.output -> A.Sec, B.Sec
  connect A.Out -> N.In
  connect C.Out -> N.In
}
"""


def test_an_output_shared_with_another_machine_keeps_its_machine_running(monkeypatch):
    # (d) C, which nothing reaches, shares N.In with A, which fires.  In the
    # schedule A, B, C, N, B raises before C meets A's value on N.In.  Had C
    # been left out, its ABSENT would sit on N.In from the start, and A's
    # write would raise first.  Which error the reference meets depends on
    # its shuffled order, so the outcome is pinned instead.
    monkeypatch.setattr(network_module, "validate", lambda top: None)
    state = initialize(parse_model(TWO_MACHINES_ONE_SINK))
    assert outcome(lambda: step(state)) == (TypeMismatch, "cannot apply '+' to 1 and true")
    labels = [item.info.label for item in state.mode.rules.schedule]
    assert labels == ["Top.A", "Top.B", "Top.C", "Top.N"]


def test_an_event_on_an_output_keeps_its_machine_running():
    # (d) The second driver is an event queued on M's output at t = 1: it
    # reaches N, and M, which decides not to fire, leaves the port as the
    # event set it.
    top = initialize(parse_model(beside_a_clock(SHARED_SINK, READER))).network.template
    event = Event(PortRef(("Top", "M"), "Out"), IntVal(7))
    state = SystemState(top, EventQueue((QueueEntry(Fraction(1), 0, (event,)),)))
    # The clock's first tick, at t = 0, is not in this queue.
    assert raised_in_run(state) is None
    for _ in range(2):
        state, _ = step(state)
    assert collect_variables(state)["Top.N"]["got"] == IntVal(7)


def test_an_input_on_a_wire_loop_stalls():
    # (e) M's W hangs on a loop of wires that nothing writes.
    text = """format 1

composite Top {
  composite Sub {
    input i
    output o
    connect parent.i -> parent.o
  }
  fsm M {
    input W
    output Out
    initial s
    transition s -> s { guard isPresent(W) output Out = 1 }
  }
  clock Clock {
    period = 1
  }
  connect Sub.o -> Sub.i, M.W
}
"""
    state = initialize(parse_model(text))
    stuck = "Top.M.Out(out), Top.M.W(in), Top.Sub.i(in), Top.Sub.o(out)"
    assert raised_in_run(state) == (0, CausalityCycle, f"ports never resolved: {stuck}")
    assert raised_in_run(state, bottom=True) is None


# The guard proof. ---------------------------------------------------------------


KINDS = {"n": IntVal, "flag": BoolVal, "t": TimeVal, "name": StringVal, "lost": None}
SAFE = [
    IsPresent("In"),
    Binary("&&", IsPresent("In"), Binary("<", Var("n"), Lit(IntVal(3)))),
    Binary("||", Unary("!", IsPresent("In")), Binary("==", Var("flag"), Lit(BoolVal(True)))),
    Binary("<=", Binary("+", Var("t"), Var("t")), Lit(TimeVal(Fraction(1, 2)))),
    Binary("!=", Var("name"), Lit(StringVal("a"))),
    Binary(">", Binary("*", Unary("-", Var("n")), Var("n")), Binary("-", Var("n"), Lit(IntVal(1)))),
]
UNSAFE = [
    Lit(IntVal(1)),
    PortValue("In"),
    Binary("==", PortValue("In"), Lit(IntVal(1))),
    Binary(">", Var("n"), Binary("+", Lit(IntVal(5)), Lit(BoolVal(True)))),
    Binary("==", Var("n"), Var("flag")),
    Binary("<", Var("name"), Var("name")),
    Binary("<", Binary("-", Var("t"), Var("t")), Var("t")),
    Binary("&&", Var("n"), Var("flag")),
    Unary("!", Var("n")),
    Binary("==", Unary("-", Var("flag")), Var("n")),
    Binary("==", Var("lost"), Var("lost")),
    Binary("&&", IsPresent("In"), Var("unknown name")),
]


@pytest.mark.parametrize("guard", SAFE)
def test_a_proven_guard_is_boolean(guard):
    assert kind_of(guard, KINDS) is BoolVal


@pytest.mark.parametrize("guard", UNSAFE)
def test_a_guard_that_may_raise_is_not_proven(guard):
    assert kind_of(guard, KINDS) is not BoolVal


def count_guard(*updates):
    """``guards_cannot_raise`` for one transition guarded by
    ``isPresent(In) && count < cap`` that makes ``updates`` (name,
    expression)."""
    guard = Binary("&&", IsPresent("In"), Binary("<", Var("count"), Var("cap")))
    transition = Transition("s", "s", guard, sets=dict(updates))
    variables = {"count": IntVal(0), "other": IntVal(0)}
    return guards_cannot_raise((transition,), variables, {"cap": IntVal(3), "count": BoolVal(False)})


def test_a_variable_keeps_its_kind_when_every_update_does():
    # Variables shadow parameters: count is an integer, not the boolean
    # parameter of the same name.
    assert count_guard()
    assert count_guard(("count", Binary("+", Var("count"), Lit(IntVal(1)))))
    assert count_guard(("count", Var("other")), ("other", Binary("*", Var("count"), Var("cap"))))


def test_a_variable_an_update_may_change_the_kind_of_is_not_proven():
    assert not count_guard(("count", Lit(BoolVal(True))))
    assert not count_guard(("count", PortValue("In")))
    # count reads other, which a later update makes unknown: only a
    # second pass drops count.
    assert not count_guard(("count", Var("other")), ("other", PortValue("In")))
    # An update the guard does not read does not matter.
    assert count_guard(("other", PortValue("In")))


def test_every_guard_of_every_location_must_be_proven():
    safe = Transition("s", "t", IsPresent("In"))
    unsafe = Transition("t", "s", Binary("==", PortValue("In"), Lit(IntVal(1))))
    assert guards_cannot_raise((safe,), {}, {})
    assert not guards_cannot_raise((safe, unsafe), {}, {})


# The work an instant does. ------------------------------------------------------


def test_guard_calls_in_a_graph_build_are_pinned(monkeypatch):
    # Each instant runs only the machines its events reach, so a guard is
    # called only where a clock, a delay or another machine reaches it.
    # Running every live machine in every instant would make 292 calls.
    calls = 0
    compile_transition = CompiledTransition.__init__

    def counted(transition, *args):
        compile_transition(transition, *args)
        guard = transition.guard

        def call(st, vs):
            nonlocal calls
            calls += 1
            return guard(st, vs)

        transition.guard = call

    monkeypatch.setattr(CompiledTransition, "__init__", counted)
    graph = build_state_graph(initialize(parse_model(families.crossings((3, 4), 6, 0))))
    assert (len(graph.nodes), calls) == (109, 95)
