"""Fixed-point port resolution: confluence, bounds, freezing, causality."""

import gc
import logging
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import CausalityCycle, NoSuchPort, ValidationError
from de_fixpoint.events import Event, EventQueue, QueueEntry
from de_fixpoint.expr import Binary, IsPresent, Lit, Unary
from de_fixpoint import fire
from de_fixpoint import network as network_module
from de_fixpoint.fire import build_rules, clear_ports, compute_fixpoint, deliver_events
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
    normalize,
    resolve,
)
from de_fixpoint.executor import Iteration, step
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.network import Network
from de_fixpoint.state import SystemState, collect_variables, fsm_locations, make_state
from de_fixpoint.values import (
    ABSENT,
    UNKNOWN,
    IntVal,
    Present,
    TimeVal,
)

import families
from conftest import actors, initial_state, load_model
from fixpoint_ref import decide_firing, reference_fixpoint


FIXTURES = (
    "flat_traffic_light.model",
    "hierarchical_traffic_light.model",
    "hierarchical_traffic_light_mutant.model",
    "causality_cycle.model",
)


def pop_due(state):
    """(the state with its due batch popped, the batch), as a step pops it."""
    _, _, events = state.entries[0]
    return state.requeued(state.entries[1:], state.now, state.microstep_of_instant), events


def staged(state):
    """The staged reference for a due instant: the due batch popped, every
    port cleared, then the batch delivered."""
    popped, events = pop_due(state)
    return deliver_events(clear_ports(popped), events)


def fused_matches_staged(state, steps):
    """Step ``steps`` times; at every due instant, resolving it in one call
    must equal resolving the staged reference.  Returns the instants seen."""
    seen = 0
    for _ in range(steps):
        if is_due(state):
            popped, events = pop_due(state)
            fused = compute_fixpoint(popped, events=events)
            reference = compute_fixpoint(staged(state))
            assert fixpoint_signature(fused) == fixpoint_signature(reference)
            assert fused.state == reference.state
            assert fused.state.top == reference.state.top
            assert fused.decisions == reference.decisions
            seen += 1
        state, _ = step(state)
    return seen


def is_due(state):
    return state.entries[0][:2] == (0, 0)


def iteration_instants(state, *, max_elapsed):
    """[(state with events delivered, live port count)] per fire instant."""
    out = []
    while state.entries and state.elapsed <= max_elapsed:
        if is_due(state):
            live_ports = sum(len(node.ports) for _, node, live in actors(state) if live)
            out.append((staged(state), live_ports))
        state, _ = step(state)
    return out


def fixpoint_signature(result):
    decisions = sorted((i, entry.transition) for i, entry in result.decisions.items())
    return (result.state.statuses, decisions, result.applications, result.stalled_ports)


def reference_signature(prepared, rng):
    """``fixpoint_signature`` of the copy-rule reference's resolution of
    ``prepared``, under a schedule ``rng`` shuffles."""
    statuses, fired, applications, stalled = reference_fixpoint(prepared, rng=rng)
    decisions = sorted((i, entry.transition) for i, entry in fired.items())
    return (statuses, decisions, applications, stalled)


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_fixpoint_confluent_under_shuffled_rule_order(fixture):
    instants = iteration_instants(initial_state(fixture), max_elapsed=8)
    assert len(instants) >= 8
    for prepared, _ in instants:
        baseline = fixpoint_signature(compute_fixpoint(prepared))
        for seed in range(20):
            assert reference_signature(prepared, random.Random(seed)) == baseline


def assert_confluent(state, rng, steps):
    """Every instant of a run resolves as the copy-rule reference does
    under shuffled schedules."""
    instants = 0
    for _ in range(steps):
        time, microstep, events = state.entries[0]
        if (time, microstep) == (0, 0):
            baseline = fixpoint_signature(compute_fixpoint(state, events=events))
            prepared = staged(state)
            for _ in range(4):
                assert reference_signature(prepared, rng) == baseline
            instants += 1
        state, _ = step(state)
    assert instants >= 10


@settings(max_examples=30)
@given(families.MODELS, st.integers(0, 2**32 - 1))
def test_fixpoint_confluent_on_generated_models(text, seed):
    # Crossings, zero-delay chains and nested modals, on the flat core: every
    # instant of a run resolves the same under shuffled rule orders.
    assert_confluent(initialize(parse_model(text)), random.Random(seed), 120)


@settings(max_examples=20)
@given(families.MODELS)
def test_fused_instant_matches_staged_on_generated_models(text):
    # A fresh instant in one call resolves exactly as clearing the ports,
    # delivering the due events and resolving from there.
    assert fused_matches_staged(initialize(parse_model(text)), 120) >= 10


def matches_reference(state, steps, rng):
    """Step ``steps`` times (absent fallback on); at every due instant,
    both starts of compute_fixpoint, with and without bottom_as_absent,
    must resolve as the copy-rule reference does under a shuffled order.
    Returns the instants seen."""
    seen = 0
    for _ in range(steps):
        if not state.entries:
            break
        if is_due(state):
            popped, events = pop_due(state)
            prepared = staged(state)
            for bottom in (False, True):
                starts = (
                    lambda: compute_fixpoint(popped, bottom, events=events),
                    lambda: compute_fixpoint(prepared, bottom),
                )
                try:
                    expected = reference_fixpoint(prepared, bottom, rng)
                except CausalityCycle as cycle:
                    for start in starts:
                        with pytest.raises(CausalityCycle) as err:
                            start()
                        assert err.value.ports == cycle.ports
                    continue
                for start in starts:
                    result = start()
                    got = (result.state.statuses, result.decisions, result.applications, result.stalled_ports)
                    assert got == expected
            seen += 1
        state, _ = step(state, bottom_as_absent=True)
    return seen


@settings(max_examples=20)
@given(families.MODELS, st.integers(0, 2**32 - 1))
def test_nets_resolve_as_the_copy_rule_reference_on_generated_models(text, seed):
    assert matches_reference(initialize(parse_model(text)), 120, random.Random(seed)) >= 10


@pytest.mark.parametrize("fixture", FIXTURES)
def test_nets_resolve_as_the_copy_rule_reference_on_fixtures(fixture):
    assert matches_reference(initial_state(fixture), 200, random.Random(fixture)) >= 20


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_applications_never_exceed_live_port_count(fixture):
    for prepared, live_ports in iteration_instants(initial_state(fixture), max_elapsed=12):
        result = compute_fixpoint(prepared)
        assert result.applications <= live_ports
        assert reference_signature(prepared, random.Random(99))[2] == result.applications


def test_all_live_ports_known_at_quiescence(flat_state):
    for prepared, _ in iteration_instants(flat_state, max_elapsed=5):
        result = compute_fixpoint(prepared)
        assert result.stalled_ports == ()
        for _, node, live in actors(result.state):
            assert not live or all(p.status is not UNKNOWN for p in node.ports)


def test_unwritten_outputs_default_to_absent(flat_state):
    prepared, _ = iteration_instants(flat_state, max_elapsed=0)[0]
    result = compute_fixpoint(prepared)
    car = resolve(result.state.top, ("FlatTrafficLight", "CarLight"))
    # The initial transition writes the lamp outputs but not the
    # pedestrian go/stop commands; those resolve to absent, not an error.
    assert car.port("Pgo", OUT).status is ABSENT
    assert car.port("Pstop", OUT).status is ABSENT
    assert car.port("Cred", OUT).status == Present(IntVal(1))


def due_at(state, elapsed):
    while not (state.elapsed == elapsed and is_due(state)):
        state, _ = step(state)
    return state


def test_frozen_subtree_takes_no_part(hier_state):
    state = due_at(hier_state, 16)
    normal_path = ("HierarchicalTrafficLight", "TrafficLight", "normal")
    assert state.enabled[state.network.actor(normal_path)] is False
    result = compute_fixpoint(staged(state))
    paths = [state.network.paths[i] for i in result.decisions]
    assert all(not path[: len(normal_path)] == normal_path for path in paths)
    frozen_car = resolve(result.state.top, normal_path + ("CarLight",))
    assert all(p.status is UNKNOWN for p in frozen_car.ports)
    live_error = resolve(result.state.top, ("HierarchicalTrafficLight", "TrafficLight", "error", "ErrorLight"))
    assert all(p.status is not UNKNOWN for p in live_error.ports)


def test_event_into_frozen_refinement_is_inert(hier_state, caplog):
    state = due_at(hier_state, 16)
    _, _, events = state.entries[0]
    stray = Event(
        PortRef(
            ("HierarchicalTrafficLight", "TrafficLight", "normal", "TimedDelay1"),
            "output",
        ),
        IntVal(1),
    )
    with caplog.at_level(logging.INFO, logger="de_fixpoint.fire"):
        prepared = deliver_events(clear_ports(state), events + state.network.flat_events([stray]))
    assert any("frozen refinement" in r.message for r in caplog.records)
    before = fsm_locations(state)
    result = compute_fixpoint(prepared)
    # The value sits on the port but drives nothing; the run is unaffected.
    delay = resolve(result.state.top, stray.target.actor)
    assert delay.port("output", OUT).status == Present(IntVal(1))
    after = fsm_locations(result.state)
    frozen = {k: v for k, v in before.items() if "normal" in k}
    assert {k: v for k, v in after.items() if "normal" in k} == frozen


def test_delivery_to_unknown_target_rejected(flat_state):
    # Events become port ids once, where a state is built from a queue.
    bad = Event(PortRef(("FlatTrafficLight", "Ghost"), "output"), IntVal(1))
    with pytest.raises(NoSuchPort):
        SystemState(flat_state.top, EventQueue((QueueEntry(Fraction(1), 0, (bad,)),)))
    not_output = Event(PortRef(("FlatTrafficLight", "CarLight"), "Sec"), IntVal(1))
    with pytest.raises(NoSuchPort):
        SystemState(flat_state.top, EventQueue((QueueEntry(Fraction(1), 0, (not_output,)),)))


# Causality cycles. -----------------------------------------------------------


def test_causality_cycle_reports_every_stuck_port(cycle_state):
    prepared = staged(cycle_state)
    with pytest.raises(CausalityCycle) as err:
        compute_fixpoint(prepared)
    text = str(err.value)
    for port in ("A.In", "A.Out", "B.In", "B.Out"):
        assert port in text
    assert "Clock" not in text


def test_bottom_as_absent_forces_stuck_ports_after_decisions(cycle_state):
    result = compute_fixpoint(staged(cycle_state), bottom_as_absent=True)
    assert len(result.stalled_ports) == 4
    a = resolve(result.state.top, ("FeedbackLoop", "A"))
    assert a.port("In", IN).status is ABSENT
    assert a.port("Out", OUT).status is ABSENT
    # Neither machine of the loop fired.
    assert all(cycle_state.network.paths[i][-1] not in ("A", "B") for i in result.decisions)


WIRE_LOOP = """format 1

composite Top {
  composite Sub {
    input i
    output o
    connect parent.i -> parent.o
  }
  fsm M {
    input W
    initial s
    transition s -> s { guard isPresent(W) }
  }
  clock Clock {
    period = 1
  }
  connect Sub.o -> Sub.i, M.W
}
"""


def test_a_loop_of_wires_through_a_composite_stalls():
    # Sub.o feeds Sub.i, which feeds Sub.o again: nothing ever writes the
    # net, so it is a causality cycle, however its reach is computed.
    state = initialize(parse_model(WIRE_LOOP))
    with pytest.raises(CausalityCycle) as err:
        step(state)
    assert err.value.ports == ("Top.M.W(in)", "Top.Sub.i(in)", "Top.Sub.o(out)")
    popped, events = pop_due(state)
    result = compute_fixpoint(popped, bottom_as_absent=True, events=events)
    stuck = ((("Top", "M"), "W", IN), (("Top", "Sub"), "i", IN), (("Top", "Sub"), "o", OUT))
    assert result.stalled_ports == stuck
    assert all(result.state.statuses[state.network.ids[key]] is ABSENT for key in stuck)


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
        transitions=(Transition("s", "s", IsPresent("In"), outputs={"Out": Lit(IntVal(1))}),),
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
    state = SystemState(top)
    prepared = deliver_events(clear_ports(state), state.network.flat_events([tick]))
    result = compute_fixpoint(prepared, bottom_as_absent=True)
    assert state.network.index[("Loop", "A")] not in result.decisions
    assert resolve(result.state.top, ("Loop", "A")).port("Out", OUT).status is ABSENT


def test_conflicting_drives_are_a_hard_error(monkeypatch):
    fsm = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("s",),
        init_location="s",
        curr_location="s",
    )

    def two_clock_top(emit2, offset2=Fraction(0)):
        mk = lambda name, emit, offset: ActorNode(
            name,
            CLOCK,
            ports=(Port("output", OUT),),
            parameters={"period": TimeVal(Fraction(1)), "emit": IntVal(emit), "offset": TimeVal(offset)},
        )
        return ActorNode(
            "Top",
            COMPOSITE,
            inner=(mk("C1", 1, Fraction(0)), mk("C2", emit2, offset2), fsm),
            connections=(
                Connection(PortRef(("C1",), "output"), (PortRef(("M",), "In"),)),
                Connection(PortRef(("C2",), "output"), (PortRef(("M",), "In"),)),
            ),
        )

    def unvalidated(build, top):
        # Validation rejects a port with two writers, so the network is
        # compiled with validation patched out, the one way past it.
        with monkeypatch.context() as patch:
            patch.setattr(network_module, "validate", lambda top: None)
            return build(top)

    def fire_clocks(top, ticking, fused):
        """Resolve an instant at which the clocks named in ``ticking`` tick,
        in one call or from the staged start."""
        network = unvalidated(Network, top)
        locations, values, statuses = network.flatten(network.template)
        state = make_state(network, network.mode(locations), locations, values, statuses, (), 0, 0)
        events = network.flat_events(
            [Event(PortRef(("Top", name), "output"), top.child(name).parameters["emit"]) for name in ticking]
        )
        if fused:
            return compute_fixpoint(state, events=events)
        return compute_fixpoint(deliver_events(clear_ports(state), events))

    with pytest.raises(ValidationError, match=r"^Top: port M\.In has more than one writer$"):
        SystemState(two_clock_top(emit2=1))
    for fused in (False, True):
        with pytest.raises(AssertionError, match="driven to two different statuses"):
            fire_clocks(two_clock_top(emit2=2), ("C1", "C2"), fused)
        # Identical drives agree, so the race is benign.
        result = fire_clocks(two_clock_top(emit2=1), ("C1", "C2"), fused)
        assert resolve(result.state.top, ("Top", "M")).port("In", IN).status == Present(IntVal(1))
        # Clocks at different offsets: where only one ticks, the silent one
        # still drives absent, and the ticking one may not overwrite that.
        staggered = two_clock_top(emit2=1, offset2=Fraction(1, 2))
        for ticking in (("C1",), ("C2",)):
            with pytest.raises(AssertionError, match="driven to two different statuses"):
                fire_clocks(staggered, ticking, fused)
    # The run meets it at its first instant, where only C1 ticks.
    state = unvalidated(initialize, two_clock_top(emit2=1, offset2=Fraction(1, 2)))
    assert [len(events) for _, _, events in state.entries] == [1, 1]
    with pytest.raises(AssertionError, match="port Top.M.In\\(in\\) driven to two different statuses"):
        step(state)


def test_step_matches_manual_fire_pipeline(flat_state):
    state = flat_state
    while not is_due(state):
        state, _ = step(state)
    manual = compute_fixpoint(staged(state))
    stepped, kind = step(state)
    assert isinstance(kind, Iteration)
    expected = {}
    for i, path in state.network.fsm_paths:
        if i in manual.decisions:
            expected[path] = manual.decisions[i].transition.target
        else:
            expected[path] = manual.state.locations[i]
    assert fsm_locations(stepped) == expected


# The compiled network. --------------------------------------------------------


@pytest.mark.parametrize(
    "fixture", ["flat_traffic_light.model", "hierarchical_traffic_light.model"]
)
def test_fused_instant_matches_clear_then_deliver(fixture):
    assert fused_matches_staged(initial_state(fixture), 200) >= 20


def test_rules_are_built_once_per_mode_configuration(monkeypatch):
    built = []

    def counting_build_rules(network, mode):
        built.append(mode)
        return build_rules(network, mode)

    monkeypatch.setattr(fire, "build_rules", counting_build_rules)
    # A fresh network, so that no other test has built its rules yet.
    state = initial_state("hierarchical_traffic_light.model")
    network = state.network
    rules = {}
    for _ in range(200):
        mode = state.mode
        state, _ = step(state)
        # The step resolved an instant in ``mode``: from then on its rules
        # are the same object.
        if mode.rules is not None:
            assert rules.setdefault(mode, mode.rules) is mode.rules
        assert state.network is network
    # Normal and error mode, each with its own set of live actors.
    assert len(network.modes) == 2
    assert set(rules) == set(network.modes.values())
    assert sorted(map(id, built)) == sorted(map(id, rules))


def one_level_modal(edit):
    """The one-level modal family member, normalized, with ``edit``
    applied to its modal actor M0; refinement A is the one selected."""
    top = normalize(parse_model(families.modal((2,), 0)))
    modal = edit(top.child("M0"))
    return replace(top, inner=tuple(modal if c.name == "M0" else c for c in top.inner))


def rejected(top) -> tuple:
    """The problems ``SystemState(top)`` reports."""
    with pytest.raises(ValidationError) as error:
        SystemState(top)
    return error.value.problems


def test_a_modal_without_its_controller_is_rejected_when_compiled():
    top = one_level_modal(lambda m: replace(m, controller="Nope"))
    assert "Nested.M0: controller 'Nope' is not an inner actor" in rejected(top)


def test_a_refinement_naming_no_child_is_rejected_when_compiled():
    top = one_level_modal(lambda m: replace(m, refinements={"a": "A", "b": "Ghost"}))
    assert "Nested.M0: refinement 'Ghost' is not an inner actor" in rejected(top)


def test_a_refinement_without_a_modal_port_has_it_completed():
    def drop_out(refinement):
        return replace(
            refinement,
            ports=tuple(p for p in refinement.ports if p.name != "Out"),
            connections=tuple(c for c in refinement.connections if c.source.port != "Out"),
        )

    def edit(modal):
        return replace(modal, inner=tuple(drop_out(c) if c.name == "A" else c for c in modal.inner))

    # A state normalizes its tree, which gives the refinement its port back.
    top = one_level_modal(edit)
    assert SystemState(top) == SystemState(normalize(top))


def test_a_connection_naming_a_missing_port_is_rejected_when_compiled():
    top = load_model("flat_traffic_light.model")
    ghost = Connection(PortRef(("Clock",), "output"), (PortRef(("CarLight",), "Ghost"),))
    top = replace(top, connections=top.connections + (ghost,))
    assert "FlatTrafficLight: connection sink CarLight.Ghost is not an input port" in rejected(top)


def test_a_network_is_freed_with_its_last_state():
    # No reference cycle runs through a network or its modes, so a network
    # goes with its last state, without waiting for the cycle collector.
    gc.disable()
    try:
        state = initial_state("hierarchical_traffic_light.model")
        for _ in range(60):
            state, _ = step(state)
        assert len(state.network.modes) == 2
        network = weakref.ref(state.network)
        del state
        assert network() is None
    finally:
        gc.enable()


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
    assert state.enabled[network.actor(normal)] is False
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


# The schedule. ----------------------------------------------------------------


def modes_reached(state, steps):
    """Every mode a run of ``steps`` steps resolves an instant in, with its
    rule set built (the absent fallback on, so that a cycle does not stop it)."""
    for _ in range(steps):
        if not state.entries:
            break
        state, _ = step(state, bottom_as_absent=True)
    return [mode for mode in state.network.modes.values() if mode.rules is not None]


def schedule_parts(rule_set):
    """The schedule as lists of actor indices: one per rule on no cycle, one per loop."""
    return [
        [rule.index for rule in item.rules] if isinstance(item, fire._Loop) else [item.index]
        for item in rule_set.schedule
    ]


def rule_edges(rule_set):
    """(a, b) by actor index when a port in the reach of one of rule a's
    outputs is one rule b reads."""
    edges = set()
    for a in rule_set.rules:
        reached = {q for pid in a.info.out_ids.values() for q in rule_set.reach[pid]}
        for b in rule_set.rules:
            if reached.intersection(b.reads):
                edges.add((a.index, b.index))
    return edges


def assert_scheduled(network, mode):
    """The schedule is a topological order of the rule graph's strongly
    connected parts, each tie going to the part with the deepest rule."""
    rule_set = mode.rules
    live = [i for i in network.preorder if i in network.fsms and mode.live[i]]
    deepest_first = sorted(live, key=lambda i: -len(network.paths[i]))
    assert [rule.index for rule in rule_set.rules] == deepest_first
    rank = {i: n for n, i in enumerate(deepest_first)}
    parts = schedule_parts(rule_set)
    assert sorted(i for part in parts for i in part) == sorted(live)
    where = {i: k for k, part in enumerate(parts) for i in part}
    edges = rule_edges(rule_set)
    for a, b in edges:
        assert where[a] <= where[b]
    for k, part in enumerate(parts):
        cyclic = len(part) > 1 or (part[0], part[0]) in edges
        assert isinstance(rule_set.schedule[k], fire._Loop) == cyclic
        if len(part) > 1:
            # Every member reaches every other inside the part.
            for a in part:
                seen, frontier = {a}, [a]
                for x in frontier:
                    for y in part:
                        if (x, y) in edges and y not in seen:
                            seen.add(y)
                            frontier.append(y)
                assert seen == set(part)
        # Of the parts whose feeders have all run, this one holds the
        # deepest rule.
        ready = [p for p in parts[k:] if all(where[a] < k for a, b in edges if b in p and a not in p)]
        assert min(rank[i] for i in part) == min(rank[i] for p in ready for i in p)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_the_schedule_is_a_topological_order_with_deepest_first_ties(fixture):
    state = initial_state(fixture)
    modes = modes_reached(state, 200)
    assert modes
    for mode in modes:
        assert_scheduled(state.network, mode)


@settings(max_examples=20)
@given(st.one_of(families.MODELS, families.FEEDBACK))
def test_the_schedule_is_a_topological_order_on_generated_models(text):
    state = initialize(parse_model(text))
    for mode in modes_reached(state, 150):
        assert_scheduled(state.network, mode)


def test_only_a_cycle_of_rules_iterates():
    # The causality cycle's A <-> B and the feedback family's A <-> B are
    # the loops; everywhere else every rule runs once.
    for state, loops in [
        (initial_state("causality_cycle.model"), [["A", "B"]]),
        (initialize(parse_model(families.feedback(3, 0))), [["A", "B"]]),
        (initial_state("hierarchical_traffic_light.model"), []),
    ]:
        for mode in modes_reached(state, 100):
            found = [
                sorted(state.network.paths[rule.index][-1] for rule in item.rules)
                for item in mode.rules.schedule
                if isinstance(item, fire._Loop)
            ]
            assert found == loops


def plan_of(state, events):
    """The plan compute_fixpoint runs for an instant of ``state``'s mode
    whose events are ``events``, once the instant has run."""
    return state.mode.rules.plans[tuple(pid for pid, _ in events)]


def decisions_per_instant(state, steps):
    """For each due instant of a run in an acyclic mode, how often each
    live machine decided, by label; the machines its plan runs; and the
    instant's popped state and result."""
    calls = Counter()
    real = fire._Machine.run

    def counting(machine, *args):
        calls[machine.info.label] += 1
        return real(machine, *args)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fire._Machine, "run", counting)
        for _ in range(steps):
            if not state.entries:
                break
            if is_due(state):
                popped, events = pop_due(state)
                calls.clear()
                result = compute_fixpoint(popped, events=events)
                rule_set = state.mode.rules
                if not any(isinstance(item, fire._Loop) for item in rule_set.schedule):
                    plan = plan_of(state, events)
                    out.append((dict(calls), {item.info.label for item in plan.run}, popped, result))
            state, _ = step(state)
    return out


def assert_each_machine_decides_once(state, steps, minimum):
    """Exactly the plan's machines decide, each once per instant, and
    every live machine left out would have decided not to fire: the
    reference decision on the resolved statuses says so, and its outputs
    resolved absent."""
    instants = decisions_per_instant(state, steps)
    assert len(instants) >= minimum
    for calls, machines, popped, result in instants:
        assert calls == dict.fromkeys(machines, 1)
        resolved = result.state
        for rule in resolved.mode.rules.rules:
            if rule.info.label in machines:
                continue
            verdict = decide_firing(rule.info, popped.locations[rule.index], resolved.statuses, popped.values)
            assert verdict == ("nofire", None)
            assert all(resolved.statuses[pid] is ABSENT for pid in rule.info.out_ids.values())


@pytest.mark.parametrize("fixture", FIXTURES[:3])
def test_each_live_machine_decides_once_per_instant_in_an_acyclic_mode(fixture):
    assert_each_machine_decides_once(initial_state(fixture), 200, 20)


@settings(max_examples=15)
@given(families.MODELS)
def test_each_live_machine_decides_once_per_instant_on_generated_models(text):
    assert_each_machine_decides_once(initialize(parse_model(text)), 120, 10)


def test_an_instant_runs_only_the_machines_its_events_reach():
    # Two crossings: at t = 1 only Clock1 ticks, and it reaches Car1 alone;
    # at t = 1/2 only StopWire0 fires, into Ped0.  Every other machine hears
    # nothing and is left out.
    state = initialize(parse_model(families.crossings((2, 3), 5, 0)))
    runs = {popped.elapsed: (calls, machines) for calls, machines, popped, _ in decisions_per_instant(state, 40)}
    assert runs[Fraction(1)] == ({"Crossings.Car1": 1}, {"Crossings.Car1"})
    assert runs[Fraction(1, 2)] == ({"Crossings.Ped0": 1}, {"Crossings.Ped0"})
    # Where both clocks tick, both cars run.
    assert runs[Fraction(4)] == ({"Crossings.Car0": 1, "Crossings.Car1": 1}, {"Crossings.Car0", "Crossings.Car1"})


# A loop that resolves. ----------------------------------------------------------


@settings(max_examples=10)
@given(families.FEEDBACK, st.integers(0, 2**32 - 1))
def test_a_loop_that_resolves_matches_the_copy_rule_reference(text, seed):
    assert matches_reference(initialize(parse_model(text)), 60, random.Random(seed)) >= 10


@settings(max_examples=10)
@given(families.FEEDBACK, st.integers(0, 2**32 - 1))
def test_a_loop_that_resolves_is_confluent(text, seed):
    assert_confluent(initialize(parse_model(text)), random.Random(seed), 60)


def test_a_loop_that_resolves_settles_every_port():
    # Each tick, A fires on its Tick alone, B answers on A's In within the
    # same instant, and the setter keeps B's answer: nothing stalls.
    state = initialize(parse_model(families.feedback(3, 0)))
    network = state.network
    a, b = network.index[("Feedback", "A")], network.index[("Feedback", "B")]
    echoes = []
    for _ in range(12):
        if is_due(state):
            popped, events = pop_due(state)
            result = compute_fixpoint(popped, events=events)
            assert result.stalled_ports == ()
            assert set(result.decisions) == {a, b}
        state, _ = step(state)
        echoes.append(collect_variables(state)["Feedback"]["echo"])
    assert {IntVal(1), IntVal(2), IntVal(3)} <= set(echoes)


STALLED_LOOP_DOWNSTREAM = """format 1

composite FeedbackLoop {
  fsm A {
    input In
    input Tick
    output Out
    initial S
    location S
    transition S -> S { guard isPresent(In) output Out = 1 }
  }
  fsm B {
    input In
    output Out
    initial S
    location S
    transition S -> S { guard isPresent(In) output Out = 1 }
  }
  fsm C {
    input Tick
    input Loop
    output Out
    initial S
    transition S -> S { guard isPresent(Tick) output Out = value(Loop) }
  }
  clock Clock {
    period = 1
  }
  connect A.Out -> B.In, C.Loop
  connect B.Out -> A.In
  connect Clock.output -> A.Tick, C.Tick
}
"""


def test_a_rule_downstream_of_a_stalled_loop_decides_once_and_partially():
    # C fires on its Tick, but its output reads the loop, which stalls: the
    # one partial decision C makes leaves C.Out unknown, as the reference's
    # worklist does.
    state = initialize(parse_model(STALLED_LOOP_DOWNSTREAM))
    assert matches_reference(state, 20, random.Random(7)) >= 5
    popped, events = pop_due(state)
    result = compute_fixpoint(popped, bottom_as_absent=True, events=events)
    c = state.network.index[("FeedbackLoop", "C")]
    assert list(result.decisions) == [c]
    assert (("FeedbackLoop", "C"), "Out", OUT) in result.stalled_ports
    labels = []
    real = fire._Machine.run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fire._Machine, "run", lambda machine, *rest: labels.append(machine.info.label) or real(machine, *rest))
        compute_fixpoint(popped, bottom_as_absent=True, events=events)
    assert labels.count("FeedbackLoop.C") == 1
