"""Fixed-point port resolution: confluence, bounds, freezing, causality."""

import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import CausalityCycle, NoSuchPort
from de_fixpoint.events import Event
from de_fixpoint.expr import Binary, IsPresent, Lit, Unary
from de_fixpoint.fire import clear_ports, compute_fixpoint, deliver_events
from de_fixpoint.model import (
    CLOCK,
    COMPOSITE,
    FSM,
    IN,
    OUT,
    ActorNode,
    Connection,
    Port,
    PortRef,
    Transition,
    iter_actors,
    resolve,
)
from de_fixpoint.executor import Iteration, step
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.network import network_of
from de_fixpoint.state import SystemState, fsm_locations
from de_fixpoint.values import (
    ABSENT,
    UNKNOWN,
    BoolVal,
    IntVal,
    Present,
    TimeVal,
)

import families
from conftest import initial_state


def iteration_instants(state, *, max_elapsed):
    """[(tree with events delivered, live port count)] per fire instant."""
    out = []
    while not state.queue.is_empty() and state.elapsed <= max_elapsed:
        if state.queue.head_tag() == (Fraction(0), 0):
            events, _ = state.queue.pop_ready()
            prepared = deliver_events(clear_ports(state.top), events)
            live_ports = sum(
                len(node.ports) for _, node, _ in iter_actors(state.top, live_only=True)
            )
            out.append((prepared, live_ports))
        state, _ = step(state)
    return out


def fixpoint_signature(result):
    statuses = tuple(
        (path, p.name, p.direction, p.status)
        for path, node, _ in iter_actors(result.top)
        for p in node.ports
    )
    return (statuses, tuple(sorted(result.decisions.items())), result.applications)


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_fixpoint_confluent_under_shuffled_rule_order(fixture):
    instants = iteration_instants(initial_state(fixture), max_elapsed=8)
    assert len(instants) >= 8
    for prepared, _ in instants:
        baseline = fixpoint_signature(compute_fixpoint(prepared))
        for seed in range(20):
            shuffled = compute_fixpoint(prepared, rng=random.Random(seed))
            assert fixpoint_signature(shuffled) == baseline


def flat_signature(result):
    decisions = sorted((i, entry.transition.target) for i, entry in result.decisions.items())
    return (result.state.statuses, decisions, result.applications, result.stalled_ports)


@settings(max_examples=30)
@given(families.MODELS, st.integers(0, 2**32 - 1))
def test_fixpoint_confluent_on_generated_models(text, seed):
    # Crossings, zero-delay chains and nested modals, on the flat core: every
    # instant of a run resolves the same under shuffled rule orders.
    rng = random.Random(seed)
    state = initialize(parse_model(text))
    instants = 0
    for _ in range(120):
        time, microstep, events = state.entries[0]
        if (time, microstep) == (0, 0):
            baseline = flat_signature(compute_fixpoint(state, events=events))
            for _ in range(4):
                assert flat_signature(compute_fixpoint(state, events=events, rng=rng)) == baseline
            assert step(state, rng=rng) == step(state)
            instants += 1
        state, _ = step(state)
    assert instants >= 10


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_applications_never_exceed_live_port_count(fixture):
    for prepared, live_ports in iteration_instants(initial_state(fixture), max_elapsed=12):
        result = compute_fixpoint(prepared, rng=random.Random(99))
        assert result.applications <= live_ports


def test_all_live_ports_known_at_quiescence(flat_state):
    for prepared, _ in iteration_instants(flat_state, max_elapsed=5):
        result = compute_fixpoint(prepared)
        assert result.stalled_ports == ()
        for _, node, _ in iter_actors(result.top, live_only=True):
            for p in node.ports:
                assert p.status is not UNKNOWN


def test_unwritten_outputs_default_to_absent(flat_state):
    prepared, _ = iteration_instants(flat_state, max_elapsed=0)[0]
    result = compute_fixpoint(prepared)
    car = resolve(result.top, ("FlatTrafficLight", "CarLight"))
    # The initial transition writes the lamp outputs but not the
    # pedestrian go/stop commands; those resolve to absent, not an error.
    assert car.port("Pgo", OUT).status is ABSENT
    assert car.port("Pstop", OUT).status is ABSENT
    assert car.port("Cred", OUT).status == Present(IntVal(1))


def test_frozen_subtree_takes_no_part(hier_state):
    state = hier_state
    while not (
        state.elapsed == 16 and state.queue.head_tag() == (Fraction(0), 0)
    ):
        state, _ = step(state)
    modal = resolve(state.top, ("HierarchicalTrafficLight", "TrafficLight"))
    assert modal.child("normal").enabled is False
    events, _ = state.queue.pop_ready()
    result = compute_fixpoint(deliver_events(clear_ports(state.top), events))
    normal_path = ("HierarchicalTrafficLight", "TrafficLight", "normal")
    assert all(not path[: len(normal_path)] == normal_path for path in result.decisions)
    frozen_car = resolve(result.top, normal_path + ("CarLight",))
    assert all(p.status is UNKNOWN for p in frozen_car.ports)
    live_error = resolve(result.top, ("HierarchicalTrafficLight", "TrafficLight", "error", "ErrorLight"))
    assert all(p.status is not UNKNOWN for p in live_error.ports)


def test_event_into_frozen_refinement_is_inert(hier_state, caplog):
    state = hier_state
    while not (state.elapsed == 16 and state.queue.head_tag() == (Fraction(0), 0)):
        state, _ = step(state)
    events, _ = state.queue.pop_ready()
    stray = Event(
        PortRef(
            ("HierarchicalTrafficLight", "TrafficLight", "normal", "TimedDelay1"),
            "output",
        ),
        IntVal(1),
    )
    with caplog.at_level(logging.INFO, logger="de_fixpoint.fire"):
        prepared = deliver_events(clear_ports(state.top), list(events) + [stray])
    assert any("frozen refinement" in r.message for r in caplog.records)
    before = fsm_locations(SystemState(state.top, state.queue))
    result = compute_fixpoint(prepared)
    # The value sits on the port but drives nothing; the run is unaffected.
    delay = resolve(result.top, stray.target.actor)
    assert delay.port("output", OUT).status == Present(IntVal(1))
    after = fsm_locations(SystemState(result.top, state.queue))
    frozen = {k: v for k, v in before.items() if "normal" in k}
    assert {k: v for k, v in after.items() if "normal" in k} == frozen


def test_delivery_to_unknown_target_rejected(flat_state):
    bad = Event(PortRef(("FlatTrafficLight", "Ghost"), "output"), IntVal(1))
    with pytest.raises(NoSuchPort):
        deliver_events(flat_state.top, [bad])
    not_output = Event(PortRef(("FlatTrafficLight", "CarLight"), "Sec"), IntVal(1))
    with pytest.raises(NoSuchPort):
        deliver_events(flat_state.top, [not_output])


# Causality cycles. -----------------------------------------------------------


def test_causality_cycle_reports_every_stuck_port(cycle_state):
    events, _ = cycle_state.queue.pop_ready()
    prepared = deliver_events(clear_ports(cycle_state.top), events)
    with pytest.raises(CausalityCycle) as err:
        compute_fixpoint(prepared)
    text = str(err.value)
    for port in ("A.In", "A.Out", "B.In", "B.Out"):
        assert port in text
    assert "Clock" not in text


def test_bottom_as_absent_forces_stuck_ports_after_decisions(cycle_state):
    events, _ = cycle_state.queue.pop_ready()
    prepared = deliver_events(clear_ports(cycle_state.top), events)
    result = compute_fixpoint(prepared, bottom_as_absent=True)
    assert len(result.stalled_ports) == 4
    a = resolve(result.top, ("FeedbackLoop", "A"))
    assert a.port("In", IN).status is ABSENT
    assert a.port("Out", OUT).status is ABSENT
    for path, decision in result.decisions.items():
        if path[-1] in ("A", "B"):
            assert decision == ("nofire", None)


def test_decisions_are_read_before_the_absent_fallback():
    # A's guard would become true under forced-absent inputs.  The verdict
    # must still be "nofire": undecided at quiescence means it did not fire.
    a = ActorNode(
        "A",
        FSM,
        ports=(Port("Tick", IN), Port("In", IN), Port("Out", OUT)),
        locations=("s", "t"),
        init_location="s",
        curr_location="s",
        transitions=(
            Transition(
                "s",
                "t",
                Binary("&&", IsPresent("Tick"), Unary("!", IsPresent("In"))),
                outputs={"Out": Lit(IntVal(1))},
            ),
        ),
    )
    b = ActorNode(
        "B",
        FSM,
        ports=(Port("In", IN), Port("Out", OUT)),
        locations=("s",),
        init_location="s",
        curr_location="s",
        transitions=(dummy_copy := Transition("s", "s", IsPresent("In"), outputs={"Out": Lit(IntVal(1))}),),
    )
    clock = ActorNode(
        "Clock",
        CLOCK,
        ports=(Port("output", OUT),),
        parameters={"period": TimeVal(Fraction(1)), "emit": IntVal(1), "offset": TimeVal(Fraction(0))},
    )
    top = ActorNode(
        "Loop",
        COMPOSITE,
        inner=(clock, a, b),
        connections=(
            Connection(PortRef(("Clock",), "output"), (PortRef(("A",), "Tick"),)),
            Connection(PortRef(("A",), "Out"), (PortRef(("B",), "In"),)),
            Connection(PortRef(("B",), "Out"), (PortRef(("A",), "In"),)),
        ),
    )
    tick = Event(PortRef(("Loop", "Clock"), "output"), IntVal(1))
    prepared = deliver_events(clear_ports(top), [tick])
    result = compute_fixpoint(prepared, bottom_as_absent=True)
    assert result.decisions[("Loop", "A")] == ("nofire", None)
    assert resolve(result.top, ("Loop", "A")).port("Out", OUT).status is ABSENT


def test_conflicting_drives_are_a_hard_error():
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("s",),
        init_location="s",
        curr_location="s",
    )
    def two_clock_top(emit2):
        mk = lambda name, emit: ActorNode(
            name,
            CLOCK,
            ports=(Port("output", OUT),),
            parameters={"period": TimeVal(Fraction(1)), "emit": IntVal(emit), "offset": TimeVal(Fraction(0))},
        )
        return ActorNode(
            "Top",
            COMPOSITE,
            inner=(mk("C1", 1), mk("C2", emit2), fsm),
            connections=(
                Connection(PortRef(("C1",), "output"), (PortRef(("M",), "In"),)),
                Connection(PortRef(("C2",), "output"), (PortRef(("M",), "In"),)),
            ),
        )

    def fire_both(top):
        events = [
            Event(PortRef(("Top", "C1"), "output"), IntVal(1)),
            Event(PortRef(("Top", "C2"), "output"), top.child("C2").parameters["emit"]),
        ]
        return compute_fixpoint(deliver_events(clear_ports(top), events))

    with pytest.raises(AssertionError):
        fire_both(two_clock_top(emit2=2))
    # Identical drives agree, so the race is benign.
    result = fire_both(two_clock_top(emit2=1))
    assert resolve(result.top, ("Top", "M")).port("In", IN).status == Present(IntVal(1))


def test_step_matches_manual_fire_pipeline(flat_state):
    state = flat_state
    while state.queue.head_tag() != (Fraction(0), 0):
        state, _ = step(state)
    events, _ = state.queue.pop_ready()
    manual = compute_fixpoint(deliver_events(clear_ports(state.top), events))
    stepped, kind = step(state, rng=random.Random(3))
    assert isinstance(kind, Iteration)
    expected = {}
    for path, (verdict, transition) in manual.decisions.items():
        if verdict == "fire":
            expected[".".join(path)] = transition.target
        else:
            expected[".".join(path)] = resolve(manual.top, path).curr_location
    assert fsm_locations(stepped) == expected


# The compiled network. --------------------------------------------------------


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_fused_instant_matches_clear_then_deliver(fixture):
    state = initial_state(fixture)
    seen = 0
    while state.elapsed <= 20:
        if state.queue.head_tag() == (Fraction(0), 0):
            events, _ = state.queue.pop_ready()
            staged = compute_fixpoint(deliver_events(clear_ports(state.top), events))
            fused = compute_fixpoint(state.top, events=events)
            assert fused.top == staged.top
            assert fused.decisions == staged.decisions
            assert fused.applications == staged.applications
            seen += 1
        state, _ = step(state)
    assert seen >= 20


def test_rules_are_built_once_per_mode_configuration(hier_state):
    state = hier_state
    for _ in range(200):
        state, _ = step(state)
    # Normal and error mode, each with its own set of live actors.
    assert len(network_of(state.top).rule_sets) == 2
    assert network_of(state.top) is network_of(hier_state.top)


def test_a_step_shares_the_slots_it_does_not_change(hier_state):
    state = hier_state
    while not (state.elapsed == 17 and state.queue.head_tag() == (Fraction(0), 0)):
        state, _ = step(state)
    # The normal refinement froze at 15 and its ports were cleared at 16;
    # from then on an iteration has nothing to change in it.
    network = state.network
    normal = ("HierarchicalTrafficLight", "TrafficLight", "normal")
    inside = [i for i, path in enumerate(network.paths) if path[: len(normal)] == normal]
    ports = [pid for i in inside for pid in network.port_ids[i]]
    frozen = resolve(state.top, normal)
    assert frozen.enabled is False
    assert all(state.statuses[pid] is UNKNOWN for pid in ports)
    nxt, kind = step(state)
    assert isinstance(kind, Iteration)
    assert all(nxt.statuses[pid] is UNKNOWN for pid in ports)
    assert [nxt.locations[i] for i in inside] == [state.locations[i] for i in inside]
    assert resolve(nxt.top, normal) == frozen
    assert nxt.top != state.top
    # No mode switch: the enabled flags are the same tuple.
    assert nxt.enabled is state.enabled
    assert nxt.statuses != state.statuses
