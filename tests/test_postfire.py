"""Post-iteration commitment: moves, updates, rescheduling, mode switches."""

import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from de_fixpoint.errors import ValidationError
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
    normalize,
)
from de_fixpoint.network import to_ticks
from de_fixpoint.postfire import commit_requests, initialize, postfire
from de_fixpoint.state import collect_variables, fsm_locations
from de_fixpoint.executor import simulate, step
from de_fixpoint.fire import compute_fixpoint
from de_fixpoint.parser import parse_model
from de_fixpoint.values import (
    ABSENT,
    UNKNOWN,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
)

import families
from conftest import MODELS, flat_events, initial_state, started

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
    network = hier_state.network
    modals = [(".".join(network.paths[info.index]), hier_state.locations[info.controller]) for info in network.modals]
    assert modals == [("HierarchicalTrafficLight.TrafficLight", "normal")]
    assert all(status is UNKNOWN for status in hier_state.statuses)


def edited(tree, path, **fields):
    """``tree`` with ``fields`` replaced on its node at ``path`` (below the top)."""
    if not path:
        return replace(tree, **fields)
    return replace(tree, inner=tuple(edited(c, path[1:], **fields) if c.name == path[0] else c for c in tree.inner))


def mid_run_tree(state):
    """The tree of ``state``'s model with the state's variables written in
    by path."""
    tree = state.network.template
    for path, variables in collect_variables(state).items():
        tree = edited(tree, path.split(".")[1:], variables=variables)
    return tree


def test_initialize_resets_a_mid_run_tree(hier_state):
    modal_path = ("HierarchicalTrafficLight", "TrafficLight")
    normal, error = (hier_state.network.actor(modal_path + (name,)) for name in ("normal", "error"))
    state = hier_state
    while not state.mode.enabled[error]:
        state, _ = step(state)
    assert any(status is not UNKNOWN for status in state.statuses)
    tree = mid_run_tree(state)
    assert normalize(tree) != hier_state.network.template

    again = initialize(tree)
    assert all(status is UNKNOWN for status in again.statuses)
    network = again.network
    assert all(again.locations[i] == network.nodes[i].init_location for i in network.fsms)
    assert again.mode.enabled[normal] and not again.mode.enabled[error]
    assert collect_variables(again) == collect_variables(state)
    # A frozen refinement stays frozen: initializing again changes nothing.
    assert initialize(network.template) == again


def test_initialize_compiles_the_network_every_step_reuses():
    state = initial_state("hierarchical_traffic_light.model")
    network = state.network
    for _ in range(20):
        state, _ = step(state)
        assert state.network is network


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
    )
    running = started(wrap(fsm), locations={"Top.M": "b"})
    assert fsm_locations(running) == {"Top.M": "b"}
    state = initialize(running.network.template)
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
    assert state.queue_summary()[0][:2] == (Fraction(3, 4), 0)
    assert state.queue.entries[0].events[0].value == StringVal("tick")


# State-machine commits. --------------------------------------------------------


def committed(state, ports=None, decisions=None):
    """The state after postfire and commit_requests, and postfire's
    requests, for an iteration that resolved the ports in ``ports``
    (port key -> status) and left every other port unknown."""
    statuses = [UNKNOWN] * state.network.size
    for key, status in (ports or {}).items():
        statuses[state.network.ids[key]] = status
    nxt, requests = postfire(state, tuple(statuses), decisions or {})
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
        ports=(Port("In", IN),),
        locations=("s", "t"),
        init_location="s",
        variables={"x": IntVal(1), "y": IntVal(5)},
        transitions=(transition,),
    )
    state = started(wrap(fsm))
    m = state.network.index[("Top", "M")]
    (entry,) = state.network.fsms[m].outgoing["s"]
    assert entry.transition == transition
    nxt, requests = committed(state, {(("Top", "M"), "In", IN): Present(IntVal(10))}, {m: entry})
    assert fsm_locations(nxt)["Top.M"] == "t"
    variables = collect_variables(nxt)["Top.M"]
    assert variables["x"] == IntVal(15)  # old y, not the new one
    assert variables["y"] == IntVal(1)  # old x
    assert requests == []


def test_nofire_commits_nothing():
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("s", "t"),
        init_location="s",
        variables={"x": IntVal(1)},
        transitions=(Transition("s", "t", TRUE, sets={"x": Lit(IntVal(9))}),),
    )
    # A machine that does not fire has no entry among the decisions.
    nxt, requests = committed(started(wrap(fsm)), {(("Top", "M"), "In", IN): ABSENT})
    assert fsm_locations(nxt)["Top.M"] == "s"
    assert collect_variables(nxt)["Top.M"]["x"] == IntVal(1)
    assert requests == []


# Clocks and delays. -------------------------------------------------------------


CLOCK_NODE = ActorNode(
    "C",
    CLOCK,
    ports=(Port("output", OUT),),
    parameters={
        "period": TimeVal(Fraction(5, 2)),
        "offset": TimeVal(Fraction(0)),
        "emit": IntVal(7),
    },
)


def clock_with(status):
    return CLOCK_NODE, {(("Top", "C"), "output", OUT): status}


def scheduled(node, ports):
    """The queue entries committing ``Top``'s postfire leaves, and the
    requests, when the iteration resolved ``ports``."""
    nxt, requests = committed(started(wrap(node)), ports)
    return nxt.queue.entries, requests


def test_ticked_clock_reschedules_one_period_out():
    entries, _ = scheduled(*clock_with(Present(IntVal(7))))
    assert entries == (
        QueueEntry(Fraction(5, 2), 0, (Event(PortRef(("Top", "C"), "output"), IntVal(7)),)),
    )


def test_silent_clock_does_not_reschedule():
    assert scheduled(*clock_with(ABSENT)) == ((), [])


def delay(amount, name="D"):
    return ActorNode(
        name,
        DELAY,
        ports=(Port("input", IN), Port("output", OUT)),
        parameters={"delay": TimeVal(Fraction(amount))},
    )


def delay_with(amount, status):
    return delay(amount), {(("Top", "D"), "input", IN): status, (("Top", "D"), "output", OUT): ABSENT}


def test_delay_forwards_its_input_value_after_the_delay():
    entries, _ = scheduled(*delay_with(Fraction(3, 2), Present(StringVal("payload"))))
    assert entries == (
        QueueEntry(Fraction(3, 2), 0, (Event(PortRef(("Top", "D"), "output"), StringVal("payload")),)),
    )


def test_zero_delay_moves_one_microstep_later():
    entries, _ = scheduled(*delay_with(0, Present(IntVal(4))))
    assert entries == (QueueEntry(Fraction(0), 1, (Event(PortRef(("Top", "D"), "output"), IntVal(4)),)),)


def test_idle_delay_schedules_nothing():
    assert scheduled(*delay_with(1, ABSENT)) == ((), [])


# Variable setters. ---------------------------------------------------------------


def setter(target):
    return ActorNode(
        "S",
        SETVAR,
        ports=(Port("input", IN),),
        parameters={"target": StringVal(target)},
    )


def test_setter_writes_nearest_enclosing_composite():
    inner = ActorNode(
        "Inner",
        COMPOSITE,
        inner=(setter("x"),),
        variables={"x": IntVal(0)},
    )
    fed = {(("Top", "Inner", "S"), "input", IN): Present(IntVal(42))}
    nxt, _ = committed(started(wrap(inner, variables={"x": IntVal(0)})), fed)
    assert collect_variables(nxt)["Top.Inner"]["x"] == IntVal(42)
    assert collect_variables(nxt)["Top"]["x"] == IntVal(0)


def test_setter_refining_a_modal_skips_past_it():
    ctrl = ActorNode("Ctrl", FSM, locations=("a",), init_location="a")
    modal = ActorNode(
        "M",
        MODAL,
        inner=(ctrl, setter("x")),
        controller="Ctrl",
        refinements={"a": "S"},
    )
    fed = {(("Top", "M", "S"), "input", IN): Present(IntVal(9))}
    nxt, _ = committed(started(wrap(modal, variables={"x": IntVal(0)})), fed)
    assert collect_variables(nxt)["Top"]["x"] == IntVal(9)


def test_setter_with_undeclared_target_raises():
    # A run's network validates its tree, so the setter is rejected before
    # it runs.
    message = r"^Top\.S: target variable 'ghost' is not declared by the enclosing composite$"
    with pytest.raises(ValidationError, match=message):
        initialize(wrap(setter("ghost"), variables={"x": IntVal(0)}))


def test_silent_setter_writes_nothing():
    nxt, _ = committed(started(wrap(setter("x"), variables={"x": IntVal(5)})), {(("Top", "S"), "input", IN): ABSENT})
    assert collect_variables(nxt)["Top"]["x"] == IntVal(5)


# Mode switches. --------------------------------------------------------------------


def test_mode_switch_takes_effect_next_iteration(hier_state):
    state = hier_state
    while not (state.elapsed == 15 and state.entries[0][:2] == (0, 0)):
        state, _ = step(state)
    modal_path = ("HierarchicalTrafficLight", "TrafficLight")
    normal, error = (state.network.actor(modal_path + (name,)) for name in ("normal", "error"))
    assert state.mode.enabled[normal] is True
    assert state.mode.enabled[error] is False
    state, _ = step(state)  # the iteration that carries the Error event
    assert fsm_locations(state)["HierarchicalTrafficLight.TrafficLight.Ctrl"] == "error"
    assert state.mode.enabled[normal] is False
    assert state.mode.enabled[error] is True
    # The machines inside the now-frozen refinement kept their positions.
    locations = fsm_locations(state)
    assert (
        locations["HierarchicalTrafficLight.TrafficLight.normal.CarLight"] == "Cred"
    )
    assert (
        locations["HierarchicalTrafficLight.TrafficLight.normal.PedestrianLight"]
        == "Pgreen"
    )


def flags_from_locations(state):
    """Each actor's enabled flag by path, read off the model's tree and
    the state's controller locations.

    A modal actor's child other than its controller is enabled exactly
    when the controller's location maps to it; every other actor is
    enabled.
    """
    locations = fsm_locations(state)
    flags = {}
    pending = [(state.network.template, (state.network.template.name,))]
    for node, path in pending:
        flags.setdefault(path, True)
        if node.kind == MODAL:
            picked = node.refinements.get(locations[".".join(path + (node.controller,))])
            for child in node.inner:
                if child.name != node.controller:
                    flags[path + (child.name,)] = child.name == picked
        pending.extend((child, path + (child.name,)) for child in node.inner)
    return flags


@settings(max_examples=15)
@given(families.MODELS)
def test_enabled_flags_follow_the_controllers_on_generated_models(text):
    state = initialize(parse_model(text))
    network = state.network
    states = [state] + [ts.state for ts in simulate(state, max_steps=60).steps]
    for state in states:
        flags = flags_from_locations(state)
        assert [flags[path] for path in network.paths] == list(state.mode.enabled)
    # Nested modals freeze and thaw refinements within the run.
    assert len({state.mode.enabled for state in states}) > 1 or not network.modals


# Queue commitment. -------------------------------------------------------------------


def test_commit_requests_folds_in_given_order():
    state = started(wrap(delay(1, "D1"), delay(Fraction(1, 2), "D2")))
    network = state.network
    d1 = Event(PortRef(("Top", "D1"), "output"), IntVal(1))
    d2 = Event(PortRef(("Top", "D2"), "output"), IntVal(2))
    ((p1, s1),), ((p2, s2),) = flat_events(network, [d1]), flat_events(network, [d2])
    one, half = to_ticks(1, network.timebase), to_ticks(Fraction(1, 2), network.timebase)
    queued = commit_requests(state, [(one, 0, (p1, s1)), (one, 0, (p2, s2))])
    assert queued.queue.summary() == [(Fraction(1), 0, 2)]
    assert queued.queue.entries[0].events == (d1, d2)
    later = commit_requests(queued, [(half, 0, (p1, s1))])
    assert later.queue_summary()[0][:2] == (Fraction(1, 2), 0)


def assert_a_normalized_tree_is_its_initial_state(text):
    """A tree with its machines in their initial locations, normalized or
    as parsed, describes the state ``initialize`` makes, and both run
    alike."""
    start = initialize(parse_model(text))
    for top in (normalize(parse_model(text)), parse_model(text)):
        init = start
        state = started(top, queue=init.queue)
        assert state == init and state.mode.enabled == init.mode.enabled
        for _ in range(50):
            if not init.entries:
                break
            init, _ = step(init, bottom_as_absent=True)
            state, _ = step(state, bottom_as_absent=True)
            assert state == init


@pytest.mark.parametrize("fixture", sorted(name for name in os.listdir(MODELS) if name.endswith(".model")))
def test_a_normalized_fixture_tree_is_its_initial_state(fixture):
    with open(os.path.join(MODELS, fixture), encoding="utf-8") as handle:
        assert_a_normalized_tree_is_its_initial_state(handle.read())


@settings(max_examples=15)
@given(families.MODELS)
def test_a_normalized_generated_tree_is_its_initial_state(text):
    assert_a_normalized_tree_is_its_initial_state(text)


# What a commit touches. ----------------------------------------------------------


class FiredOnly(dict):
    """A fixed point's decisions that refuse every lookup by key: a commit
    may walk the machines that fired, and ask about no other."""

    def _refuse(self, *args):
        raise AssertionError(f"postfire looked up a machine by key: {args}")

    __getitem__ = get = __contains__ = _refuse


def expected_commit(network, mode, statuses, decisions):
    """The requests, value writes and moves of a commit, worked out
    independently of ``Mode.triggers``: every live clock, delay and
    setter in preorder, the later of two setters of a variable winning."""
    requests, writes = [], {}
    for i in network.preorder:
        if not mode.live[i]:
            continue
        if i in network.clocks:
            clock = network.clocks[i]
            if isinstance(statuses[clock.out], Present):
                requests.append((clock.period, 0, (clock.out, clock.emit)))
        elif i in network.delays:
            delay = network.delays[i]
            status = statuses[delay.inp]
            if isinstance(status, Present):
                microstep = 1 if delay.delay == 0 else 0
                requests.append((delay.delay, microstep, (delay.out, status)))
        elif i in network.setters:
            pid, slot = network.setters[i]
            if isinstance(statuses[pid], Present):
                writes[slot] = statuses[pid].value
    moves = {i: entry.target for i, entry in decisions.items()}
    return requests, writes, moves


def assert_commits_only_what_fired(state, steps, minimum):
    seen = 0
    for _ in range(steps):
        if not state.entries:
            break
        time, microstep, events = state.entries[0]
        if (time, microstep) == (0, 0):
            result = compute_fixpoint(state, events)
            nxt, requests = postfire(state, result.statuses, FiredOnly(result.decisions))
            want_requests, writes, moves = expected_commit(state.network, state.mode, result.statuses, result.decisions)
            assert requests == want_requests
            assert nxt.statuses is result.statuses
            assert nxt.entries == state.entries[1:]
            for i, (before, after) in enumerate(zip(state.locations, nxt.locations)):
                assert after == moves.get(i, before)
            updated = {slot for entry in result.decisions.values() for slot, _, _ in entry.updates}
            for slot, (before, after) in enumerate(zip(state.values, nxt.values)):
                if slot in writes:
                    assert after == writes[slot]
                elif slot not in updated:
                    assert after is before
            seen += 1
        state, _ = step(state)
    assert seen >= minimum


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model", "hierarchical_traffic_light_mutant.model"]
)
def test_postfire_touches_only_fired_machines_and_present_triggers(fixture):
    assert_commits_only_what_fired(initial_state(fixture), 200, 20)


@settings(max_examples=15)
@given(families.MODELS)
def test_postfire_touches_only_fired_machines_and_present_triggers_on_generated_models(text):
    assert_commits_only_what_fired(initialize(parse_model(text)), 120, 10)
