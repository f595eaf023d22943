"""Post-iteration commitment: moves, updates, rescheduling, mode switches."""

from fractions import Fraction

import pytest

from de_fixpoint.errors import UnknownVariableTarget, ValidationError
from de_fixpoint.events import Event, QueueEntry
from de_fixpoint.expr import Binary, IsPresent, Lit, PortValue, Var
from de_fixpoint.model import (
    CLOCK,
    COMPOSITE,
    DELAY,
    FSM,
    IN,
    MODAL,
    OUT,
    SETVAR,
    ActorNode,
    Port,
    PortRef,
    Transition,
    iter_actors,
    resolve,
)
from de_fixpoint.network import network_of, to_ticks
from de_fixpoint.postfire import commit_requests, initialize, postfire
from de_fixpoint.state import SystemState, collect_variables, fsm_locations
from de_fixpoint.executor import step
from de_fixpoint.values import (
    ABSENT,
    UNKNOWN,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
)

from conftest import initial_state

TRUE = Lit(BoolVal(True))


def wrap(*inner, variables=None, name="Top"):
    return ActorNode(name, COMPOSITE, inner=inner, variables=variables or {})


# Initialization. --------------------------------------------------------------


def test_initialize_validates_and_resets(hier_state):
    locations = fsm_locations(hier_state)
    assert locations["HierarchicalTrafficLight.Decision"] == "Dinit"
    assert locations["HierarchicalTrafficLight.TrafficLight.Ctrl"] == "normal"
    assert (
        locations["HierarchicalTrafficLight.TrafficLight.error.ErrorLight"] == "Einit"
    )
    # The one modal actor's controller picks its mode.
    modals = [
        (".".join(path), node.child(node.controller).curr_location)
        for path, node, _ in iter_actors(hier_state.top)
        if node.kind == MODAL
    ]
    assert modals == [("HierarchicalTrafficLight.TrafficLight", "normal")]
    for _, node, _ in iter_actors(hier_state.top):
        assert all(p.status is UNKNOWN for p in node.ports)


def test_initialize_resets_a_mid_run_tree(hier_state):
    modal_path = ("HierarchicalTrafficLight", "TrafficLight")
    state = hier_state
    while not resolve(state.top, modal_path).child("error").enabled:
        state, _ = step(state)
    assert any(p.status is not UNKNOWN for _, n, _ in iter_actors(state.top) for p in n.ports)

    again = initialize(state.top)
    for _, node, _ in iter_actors(again.top):
        assert all(p.status is UNKNOWN for p in node.ports)
        if node.kind == FSM:
            assert node.curr_location == node.init_location
    modal = resolve(again.top, modal_path)
    assert modal.child("normal").enabled and not modal.child("error").enabled
    assert collect_variables(again) == collect_variables(state)
    # A frozen refinement stays frozen: initializing again changes nothing.
    assert initialize(again.top) == again


def test_initialize_compiles_the_network_every_step_reuses():
    state = initial_state("hierarchical_traffic_light.model")
    network = state.top._network
    assert network is not None
    for _ in range(20):
        state, _ = step(state)
        assert network_of(state.top) is network


def test_initialize_rejects_invalid_models():
    with pytest.raises(ValidationError):
        initialize(ActorNode("C", CLOCK, ports=(Port("output", OUT),)))


def test_initialize_restarts_machines_and_modes():
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("a", "b"),
        init_location="a",
        curr_location="b",
    )
    state = initialize(wrap(fsm))
    assert fsm_locations(state) == {"Top.M": "a"}


def test_initialize_schedules_only_live_clocks():
    def refinement(name, period, offset):
        inner_clock = ActorNode(
            "C",
            CLOCK,
            ports=(Port("output", OUT),),
            parameters={"period": TimeVal(Fraction(period)), "offset": TimeVal(Fraction(offset))},
        )
        return ActorNode(name, COMPOSITE, inner=(inner_clock,))

    ctrl = ActorNode("Ctrl", FSM, locations=("a", "b"), init_location="a")
    modal = ActorNode(
        "M",
        MODAL,
        inner=(ctrl, refinement("RA", 2, Fraction(1, 2)), refinement("RB", 3, 0)),
        controller="Ctrl",
        refinements={"a": "RA", "b": "RB"},
    )
    state = initialize(wrap(modal))
    assert state.queue.summary() == [(Fraction(1, 2), 0, 1)]
    (entry,) = state.queue.entries
    (event,) = entry.events
    assert event.target == PortRef(("Top", "M", "RA", "C"), "output")
    assert event.value == IntVal(1)


def test_initialize_honors_custom_emit_and_offset():
    clock = ActorNode(
        "C",
        CLOCK,
        ports=(Port("output", OUT),),
        parameters={
            "period": TimeVal(Fraction(1)),
            "offset": TimeVal(Fraction(3, 4)),
            "emit": StringVal("tick"),
        },
    )
    state = initialize(wrap(clock))
    assert state.queue.head_tag() == (Fraction(3, 4), 0)
    assert state.queue.entries[0].events[0].value == StringVal("tick")


# State-machine commits. --------------------------------------------------------


def committed(state, decisions=None):
    """The state after postfire and commit_requests, and postfire's requests."""
    nxt, requests = postfire(state, decisions or {})
    return commit_requests(nxt, requests), requests


def test_variable_updates_are_simultaneous():
    transition = Transition(
        "s",
        "t",
        IsPresent("In"),
        sets={"x": Binary("+", PortValue("In"), Var("y")), "y": Var("x")},
    )
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN, Present(IntVal(10))),),
        locations=("s", "t"),
        init_location="s",
        curr_location="s",
        variables={"x": IntVal(1), "y": IntVal(5)},
        transitions=(transition,),
    )
    state = SystemState(wrap(fsm))
    m = state.network.index[("Top", "M")]
    (entry,) = state.network.fsms[m].outgoing["s"]
    assert entry.transition == transition
    nxt, requests = committed(state, {m: entry})
    assert fsm_locations(nxt)["Top.M"] == "t"
    variables = collect_variables(nxt)["Top.M"]
    assert variables["x"] == IntVal(15)  # old y, not the new one
    assert variables["y"] == IntVal(1)  # old x
    assert requests == []


def test_nofire_commits_nothing():
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN, ABSENT),),
        locations=("s", "t"),
        init_location="s",
        curr_location="s",
        variables={"x": IntVal(1)},
        transitions=(Transition("s", "t", TRUE, sets={"x": Lit(IntVal(9))}),),
    )
    # A machine that does not fire has no entry among the decisions.
    nxt, requests = committed(SystemState(wrap(fsm)))
    assert fsm_locations(nxt)["Top.M"] == "s"
    assert collect_variables(nxt)["Top.M"]["x"] == IntVal(1)
    assert requests == []


# Clocks and delays. -------------------------------------------------------------


def clock_with(status):
    return ActorNode(
        "C",
        CLOCK,
        ports=(Port("output", OUT, status),),
        parameters={
            "period": TimeVal(Fraction(5, 2)),
            "offset": TimeVal(Fraction(0)),
            "emit": IntVal(7),
        },
    )


def scheduled(node):
    """The queue entries committing ``Top``'s postfire leaves, and the requests."""
    nxt, requests = committed(SystemState(wrap(node)))
    return nxt.queue.entries, requests


def test_ticked_clock_reschedules_one_period_out():
    entries, _ = scheduled(clock_with(Present(IntVal(7))))
    assert entries == (
        QueueEntry(Fraction(5, 2), 0, (Event(PortRef(("Top", "C"), "output"), IntVal(7)),)),
    )


def test_silent_clock_does_not_reschedule():
    assert scheduled(clock_with(ABSENT)) == ((), [])


def delay_with(amount, status, name="D"):
    return ActorNode(
        name,
        DELAY,
        ports=(Port("input", IN, status), Port("output", OUT, ABSENT)),
        parameters={"delay": TimeVal(Fraction(amount))},
    )


def test_delay_forwards_its_input_value_after_the_delay():
    entries, _ = scheduled(delay_with(Fraction(3, 2), Present(StringVal("payload"))))
    assert entries == (
        QueueEntry(Fraction(3, 2), 0, (Event(PortRef(("Top", "D"), "output"), StringVal("payload")),)),
    )


def test_zero_delay_moves_one_microstep_later():
    entries, _ = scheduled(delay_with(0, Present(IntVal(4))))
    assert entries == (QueueEntry(Fraction(0), 1, (Event(PortRef(("Top", "D"), "output"), IntVal(4)),)),)


def test_idle_delay_schedules_nothing():
    assert scheduled(delay_with(1, ABSENT)) == ((), [])


# Variable setters. ---------------------------------------------------------------


def setter(target, status):
    return ActorNode(
        "S",
        SETVAR,
        ports=(Port("input", IN, status),),
        parameters={"target": StringVal(target)},
    )


def test_setter_writes_nearest_enclosing_composite():
    inner = ActorNode(
        "Inner",
        COMPOSITE,
        inner=(setter("x", Present(IntVal(42))),),
        variables={"x": IntVal(0)},
    )
    nxt, _ = committed(SystemState(wrap(inner, variables={"x": IntVal(0)})))
    assert collect_variables(nxt)["Top.Inner"]["x"] == IntVal(42)
    assert collect_variables(nxt)["Top"]["x"] == IntVal(0)


def test_setter_refining_a_modal_skips_past_it():
    ctrl = ActorNode("Ctrl", FSM, locations=("a",), init_location="a", curr_location="a")
    modal = ActorNode(
        "M",
        MODAL,
        inner=(ctrl, setter("x", Present(IntVal(9)))),
        controller="Ctrl",
        refinements={"a": "S"},
    )
    nxt, _ = committed(SystemState(wrap(modal, variables={"x": IntVal(0)})))
    assert collect_variables(nxt)["Top"]["x"] == IntVal(9)


def test_setter_with_undeclared_target_raises():
    with pytest.raises(UnknownVariableTarget):
        postfire(SystemState(wrap(setter("ghost", Present(IntVal(1))), variables={"x": IntVal(0)})), {})


def test_silent_setter_writes_nothing():
    nxt, _ = committed(SystemState(wrap(setter("x", ABSENT), variables={"x": IntVal(5)})))
    assert collect_variables(nxt)["Top"]["x"] == IntVal(5)


# Mode switches. --------------------------------------------------------------------


def test_mode_switch_takes_effect_next_iteration(hier_state):
    state = hier_state
    while not (state.elapsed == 15 and state.queue.head_tag() == (Fraction(0), 0)):
        state, _ = step(state)
    modal_before = resolve(
        state.top, ("HierarchicalTrafficLight", "TrafficLight")
    )
    assert modal_before.child("normal").enabled is True
    assert modal_before.child("error").enabled is False
    state, _ = step(state)  # the iteration that carries the Error event
    modal_after = resolve(state.top, ("HierarchicalTrafficLight", "TrafficLight"))
    assert modal_after.child("Ctrl").curr_location == "error"
    assert modal_after.child("normal").enabled is False
    assert modal_after.child("error").enabled is True
    # The machines inside the now-frozen refinement kept their positions.
    locations = fsm_locations(state)
    assert (
        locations["HierarchicalTrafficLight.TrafficLight.normal.CarLight"] == "Cred"
    )
    assert (
        locations["HierarchicalTrafficLight.TrafficLight.normal.PedestrianLight"]
        == "Pgreen"
    )


# Queue commitment. -------------------------------------------------------------------


def test_commit_requests_folds_in_given_order():
    state = SystemState(wrap(delay_with(1, ABSENT, "D1"), delay_with(Fraction(1, 2), ABSENT, "D2")))
    network = state.network
    d1 = Event(PortRef(("Top", "D1"), "output"), IntVal(1))
    d2 = Event(PortRef(("Top", "D2"), "output"), IntVal(2))
    ((p1, s1),), ((p2, s2),) = network.flat_events([d1]), network.flat_events([d2])
    one, half = to_ticks(1, network.timebase), to_ticks(Fraction(1, 2), network.timebase)
    queued = commit_requests(state, [(one, 0, (p1, s1)), (one, 0, (p2, s2))])
    assert queued.queue.summary() == [(Fraction(1), 0, 2)]
    assert queued.queue.entries[0].events == (d1, d2)
    later = commit_requests(queued, [(half, 0, (p1, s1))])
    assert later.queue.head_tag() == (Fraction(1, 2), 0)
