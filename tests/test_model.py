"""Model normalization, validation, lookup helpers, and firing decisions."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from de_fixpoint.errors import NondeterministicFsm, NoSuchActor, ValidationError
from de_fixpoint.expr import Binary, IsPresent, Lit, Var, expr_text
from de_fixpoint.executor import step
from de_fixpoint import fire
from de_fixpoint.fire import compute_fixpoint
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
    Connection,
    Port,
    PortRef,
    Transition,
    normalize,
    validate,
)
from de_fixpoint.network import Network
from de_fixpoint.parser import parse_model, print_model
from de_fixpoint.postfire import initialize
from de_fixpoint.state import SystemState
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
from conftest import load_model, model_path, resolve
from fixpoint_ref import _FsmRule, decide_firing
from normalize_ref import reference_normalize

TRUE = Lit(BoolVal(True))


def clock(name="Clock", **params):
    params.setdefault("period", TimeVal(Fraction(1)))
    return ActorNode(
        name, CLOCK, ports=(Port("output", OUT),), parameters=params
    )


def problems_of(model):
    with pytest.raises(ValidationError) as err:
        validate(model)
    return str(err.value)


# Normalization. -------------------------------------------------------------


def test_normalize_fills_clock_defaults():
    node = normalize(clock())
    assert node.parameters["offset"] == TimeVal(Fraction(0))
    assert node.parameters["emit"] == IntVal(1)
    explicit = normalize(clock(offset=TimeVal(Fraction(1, 2)), emit=StringVal("tick")))
    assert explicit.parameters["offset"] == TimeVal(Fraction(1, 2))
    assert explicit.parameters["emit"] == StringVal("tick")


def test_normalize_is_idempotent_on_fixtures(hier_state, flat_state):
    for state in (hier_state, flat_state):
        once = state.network.template
        assert normalize(once) is once


def assert_normalizes_as_before(text):
    tree = parse_model(text)
    printed = print_model(tree)
    once, before = normalize(tree), reference_normalize(tree)
    assert once == before
    assert print_model(once) == print_model(before)
    assert print_model(tree) == printed
    assert normalize(once) is once  # nothing left to change, so nothing is rebuilt
    assert initialize(tree) == initialize(before)


@pytest.mark.parametrize(
    "name",
    [
        "flat_traffic_light.model",
        "hierarchical_traffic_light.model",
        "hierarchical_traffic_light_mutant.model",
        "causality_cycle.model",
    ],
)
def test_normalize_matches_the_rebuilding_reference_on_fixtures(name):
    with open(model_path(name), encoding="utf-8") as handle:
        assert_normalizes_as_before(handle.read())


@given(families.MODELS)
def test_normalize_matches_the_rebuilding_reference_on_generated_models(text):
    assert_normalizes_as_before(text)


EXPRS = [TRUE, Var("go"), IsPresent("In"), Binary("&&", IsPresent("In"), Var("go")), Lit(IntVal(1))]
TRANSITIONS = st.lists(
    st.builds(
        Transition,
        st.sampled_from(["a", "b"]),
        st.sampled_from(["a", "b"]),
        st.sampled_from(EXPRS),
        st.dictionaries(st.sampled_from(["O", "P"]), st.sampled_from(EXPRS), max_size=2),
        st.dictionaries(st.sampled_from(["n", "m"]), st.sampled_from(EXPRS), max_size=2),
    ),
    max_size=6,
)


@given(TRANSITIONS.flatmap(lambda ts: st.tuples(st.just(ts), st.permutations(ts))))
def test_transitions_take_the_canonical_order_in_any_declaration_order(drawn):
    """By source and target, then by the text of the guard, the outputs and the updates."""
    transitions, declared = drawn

    def text_key(t):
        outputs = tuple((k, expr_text(v)) for k, v in t.outputs.items())
        sets = tuple((k, expr_text(v)) for k, v in t.sets.items())
        return t.source, t.target, expr_text(t.guard), outputs, sets

    node = ActorNode("M", FSM, transitions=tuple(declared))
    assert node.transitions == tuple(sorted(transitions, key=text_key))


def test_normalize_builds_each_node_without_sorting_again(monkeypatch):
    tree = load_model("hierarchical_traffic_light.model")
    built = []
    post_init = ActorNode.__post_init__
    monkeypatch.setattr(ActorNode, "__post_init__", lambda node: built.append(node) or post_init(node))
    assert normalize(tree) != tree  # nodes were rebuilt, none through __init__
    assert built == []


def test_modal_controller_mirrors_outputs_as_coupled_pairs(hier_state):
    modal = resolve(hier_state.network.template, ("HierarchicalTrafficLight", "TrafficLight"))
    lights = ("Cgrn", "Cred", "Cyel", "Pgrn", "Pred")
    assert modal.port_names(OUT) == lights
    ctrl = modal.child("Ctrl")
    for name in lights:
        assert ctrl.port(name, IN) is not None
        assert ctrl.port(name, OUT) is not None
    for name in ("Sec", "Error", "Ok"):
        assert ctrl.port(name, IN) is not None
        assert ctrl.port(name, OUT) is None


def test_modal_refinements_carry_the_modal_port_lists(hier_state):
    modal = resolve(hier_state.network.template, ("HierarchicalTrafficLight", "TrafficLight"))
    for refinement in ("normal", "error"):
        child = modal.child(refinement)
        assert set(child.port_names(IN)) == {"Sec", "Error", "Ok"}
        assert set(child.port_names(OUT)) == {"Cgrn", "Cred", "Cyel", "Pgrn", "Pred"}


def test_modal_connections_fan_each_input_to_all_children(hier_state):
    path = ("HierarchicalTrafficLight", "TrafficLight")
    network = hier_state.network
    inputs = {network.ids[(path, name, IN)] for name in ("Error", "Ok", "Sec")}
    expected = [
        (network.ids[(path, name, IN)], network.ids[(path + (child,), name, IN)])
        for name in ("Error", "Ok", "Sec")
        for child in ("Ctrl", "error", "normal")
    ]
    assert [wire for wire in network.wires if wire[0] in inputs] == expected
    # The tree spells none of it out.
    assert resolve(hier_state.network.template, path).connections == ()


# Lookup helpers. -------------------------------------------------------------


def test_resolve_follows_absolute_paths(hier_state):
    # The network's index finds the node the tree walk finds, and both
    # name the first missing prefix of an unknown path.
    network = hier_state.network
    top = network.template
    assert resolve(top, ("HierarchicalTrafficLight",)) is top
    path = ("HierarchicalTrafficLight", "TrafficLight", "error", "ErrorLight")
    deep = resolve(top, path)
    assert deep.kind == FSM
    assert network.nodes[network.actor(path)] is deep
    for bad in (("Nope",), ("HierarchicalTrafficLight", "Nope", "Deeper"), ()):
        with pytest.raises(NoSuchActor) as walked:
            resolve(top, bad)
        with pytest.raises(NoSuchActor) as indexed:
            network.actor(bad)
        assert str(walked.value) == str(indexed.value)


def test_live_flags_report_frozen_subtrees(hier_state):
    network = hier_state.network
    paths = {network.paths[i]: hier_state.mode.live[i] for i in network.preorder}
    tl = ("HierarchicalTrafficLight", "TrafficLight")
    assert paths[tl]
    assert paths[tl + ("normal",)]
    assert paths[tl + ("normal", "CarLight")]
    assert not paths[tl + ("error",)]
    assert not paths[tl + ("error", "ErrorLight")]
    live_paths = {network.paths[i] for i in network.preorder if hier_state.mode.live[i]}
    assert tl + ("normal", "CarLight") in live_paths
    assert tl + ("error",) not in live_paths
    assert tl + ("error", "ErrorLight") not in live_paths


def test_clear_ports_resets_statuses(hier_state):
    # An instant clears every port before it delivers its events: it reads
    # none of the statuses the last one left, and a port it does not
    # resolve, in a frozen refinement, stays unknown.
    state, _ = step(hier_state)
    assert any(status is not UNKNOWN for status in state.statuses)
    network = state.network
    unknown = (UNKNOWN,) * network.size
    blank = SystemState(
        network, state.mode, state.locations, state.values, unknown, state.entries, state.now, state.microstep_of_instant
    )
    statuses = compute_fixpoint(state, ()).statuses
    assert statuses == compute_fixpoint(blank, ()).statuses
    frozen = [pid for i in network.preorder if not state.mode.live[i] for pid in network.port_ids[i]]
    assert frozen and all(statuses[pid] is UNKNOWN for pid in frozen)


# Firing decisions. -----------------------------------------------------------


def machine(*transitions, variables=None):
    return ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN), Port("Aux", IN), Port("Out", OUT)),
        locations=("s", "t"),
        init_location="s",
        variables=variables or {},
        transitions=transitions,
    )


def decide(node, input_statuses):
    """The machine's firing decision, (verdict, transition), as the
    reference ``decide_firing`` makes it; the engine's ``_Machine.run``
    must make the same one, or raise the same error.

    The machine runs alone inside a composite, the smallest valid model.
    """
    network = Network(ActorNode("T", COMPOSITE, inner=(node,)))
    statuses = [input_statuses.get(name, UNKNOWN) for _, name, _ in network.keys]
    locations, values = network.flatten()
    out = network.ids[(("T", node.name), "Out", OUT)]

    def engine():
        machine = fire._machine(network, 1)
        st, fired = list(statuses), {}
        machine.run(st, locations, values, fired, [(pid,) for pid in range(network.size)])
        if 1 in fired:
            return "fire", fired[1].transition
        return ("nofire", None) if st[out] is ABSENT else (None, None)

    try:
        verdict, entry = decide_firing(_FsmRule(1, network), node.init_location, statuses, values)
    except Exception as error:
        with pytest.raises(type(error)) as raised:
            engine()
        assert str(raised.value) == str(error)
        raise
    want = verdict, (entry.transition if entry is not None else None)
    assert engine() == want
    return want


def test_decision_waits_for_guard_ports():
    node = machine(Transition("s", "t", IsPresent("In")))
    assert decide(node, {"In": UNKNOWN, "Aux": ABSENT}) == (None, None)
    verdict, t = decide(node, {"In": Present(IntVal(1)), "Aux": ABSENT})
    assert verdict == "fire" and t.target == "t"
    assert decide(node, {"In": ABSENT, "Aux": ABSENT}) == ("nofire", None)


def test_true_guard_still_needs_a_present_input():
    # A machine reacts to events; a tautological guard alone cannot fire it.
    node = machine(Transition("s", "t", TRUE))
    assert decide(node, {"In": UNKNOWN, "Aux": UNKNOWN}) == (None, None)
    assert decide(node, {"In": ABSENT, "Aux": ABSENT}) == ("nofire", None)
    verdict, t = decide(node, {"In": ABSENT, "Aux": Present(IntVal(1))})
    assert verdict == "fire" and t is not None


def test_decision_can_fire_before_every_port_is_known():
    # The guard only reads In; Aux being unknown must not delay the verdict.
    node = machine(Transition("s", "t", IsPresent("In")))
    verdict, _ = decide(node, {"In": Present(IntVal(1)), "Aux": UNKNOWN})
    assert verdict == "fire"


def test_two_true_guards_raise_only_when_firing():
    node = machine(
        Transition("s", "t", TRUE),
        Transition("s", "s", TRUE),
    )
    with pytest.raises(NondeterministicFsm):
        decide(node, {"In": Present(IntVal(1)), "Aux": ABSENT})
    # With no input present the machine does not fire, so the overlap is moot.
    assert decide(node, {"In": ABSENT, "Aux": ABSENT}) == ("nofire", None)


def test_guards_read_variables_and_parameters():
    node = machine(
        Transition("s", "t", Binary("&&", IsPresent("In"), Binary("<", Var("n"), Var("cap")))),
        variables={"n": IntVal(1)},
    )
    node = ActorNode(
        **{
            **{f.name: getattr(node, f.name) for f in node.__dataclass_fields__.values()},
            "parameters": {"cap": IntVal(5)},
        }
    )
    verdict, _ = decide(node, {"In": Present(IntVal(1)), "Aux": ABSENT})
    assert verdict == "fire"


def test_non_boolean_guard_rejected_at_decision_time():
    node = machine(Transition("s", "t", Lit(IntVal(3))))
    with pytest.raises(ValidationError, match=r"^T\.M: guard of s->t is not boolean$"):
        decide(node, {"In": Present(IntVal(1)), "Aux": ABSENT})


# Validation. ------------------------------------------------------------------


def wrap(*inner, connections=(), variables=None, name="Top"):
    return ActorNode(
        name,
        COMPOSITE,
        inner=inner,
        connections=connections,
        variables=variables or {},
    )


def test_top_level_must_be_composite():
    assert "must be a composite" in problems_of(clock())


def test_clock_shape_and_period_checked():
    bad_ports = ActorNode("C", CLOCK, parameters={"period": TimeVal(Fraction(1))})
    msg = problems_of(wrap(bad_ports))
    assert "exactly one output port 'output'" in msg
    missing = ActorNode("C", CLOCK, ports=(Port("output", OUT),))
    assert "missing parameter 'period'" in problems_of(wrap(missing))
    zero = clock(period=TimeVal(Fraction(0)))
    assert "period" in problems_of(wrap(zero))


def test_delay_shape_and_parameter_checked():
    bad = ActorNode("D", DELAY, ports=(Port("input", IN),))
    msg = problems_of(wrap(bad))
    assert "'input' and 'output'" in msg
    assert "missing parameter 'delay'" in msg
    negative = ActorNode(
        "D",
        DELAY,
        ports=(Port("input", IN), Port("output", OUT)),
        parameters={"delay": IntVal(-1)},
    )
    assert "delay" in problems_of(wrap(negative))


def test_setvar_target_must_exist_in_enclosing_composite():
    setter = ActorNode(
        "S", SETVAR, ports=(Port("input", IN),), parameters={"target": StringVal("x")}
    )
    assert "not declared by the enclosing composite" in problems_of(wrap(setter))
    validate(wrap(setter, variables={"x": IntVal(0)}))  # ok now


def test_fsm_structure_checked():
    ghost = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("s",),
        init_location="nope",
        transitions=(Transition("s", "gone", IsPresent("In")),),
    )
    msg = problems_of(wrap(ghost))
    assert "initial location" in msg
    assert "enters unknown location" in msg


def test_fsm_expressions_checked_against_scope():
    node = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN), Port("Out", OUT)),
        locations=("s",),
        init_location="s",
        transitions=(
            Transition(
                "s",
                "s",
                IsPresent("Ghost"),
                outputs={"Nope": Lit(IntVal(1))},
                sets={"missing": Var("unbound")},
            ),
        ),
    )
    msg = problems_of(wrap(node))
    assert "reads unknown port 'Ghost'" in msg
    assert "writes unknown output 'Nope'" in msg
    assert "sets unknown variable 'missing'" in msg
    assert "unbound name 'unbound'" in msg


def test_connection_endpoints_checked():
    src = clock()
    sink = ActorNode(
        "M",
        FSM,
        ports=(Port("In", IN),),
        locations=("s",),
        init_location="s",
    )
    good = wrap(
        src,
        sink,
        connections=(Connection(PortRef(("Clock",), "output"), (PortRef(("M",), "In"),)),),
    )
    validate(good)
    bad = wrap(
        src,
        sink,
        connections=(
            Connection(PortRef(("Ghost",), "output"), (PortRef(("M",), "Nope"),)),
        ),
    )
    msg = problems_of(bad)
    assert "unknown actor" in msg
    assert "not an input port" in msg


def test_one_writer_per_port():
    sink = ActorNode(
        "M", FSM, ports=(Port("In", IN),), locations=("s",), init_location="s"
    )
    model = wrap(
        clock("C1"),
        clock("C2"),
        sink,
        connections=(
            Connection(PortRef(("C1",), "output"), (PortRef(("M",), "In"),)),
            Connection(PortRef(("C2",), "output"), (PortRef(("M",), "In"),)),
        ),
    )
    assert "more than one writer" in problems_of(model)


def modal_fixture(**overrides):
    ctrl = ActorNode(
        "Ctrl",
        FSM,
        locations=("a", "b"),
        init_location="a",
        transitions=(Transition("a", "b", IsPresent("Go")),),
    )
    ref_a = ActorNode("ra", FSM, locations=("s",), init_location="s")
    ref_b = ActorNode("rb", FSM, locations=("s",), init_location="s")
    fields = dict(
        name="Mode",
        kind=MODAL,
        ports=(Port("Go", IN), Port("Lamp", OUT)),
        inner=(ctrl, ref_a, ref_b),
        controller="Ctrl",
        refinements={"a": "ra", "b": "rb"},
    )
    fields.update(overrides)
    return normalize(wrap(ActorNode(**fields)))


def test_modal_validates_clean_fixture():
    validate(modal_fixture())


def test_modal_controller_and_refinements_checked():
    assert "is not an inner actor" in problems_of(modal_fixture(controller="Ghost"))
    assert "missing location 'b'" in problems_of(modal_fixture(refinements={"a": "ra"}))
    assert "unknown location" in problems_of(
        modal_fixture(refinements={"a": "ra", "b": "rb", "zz": "ra"})
    )
    assert "neither the controller nor" in problems_of(
        modal_fixture(refinements={"a": "ra", "b": "ra"})
    )


def test_modal_rejects_explicit_connections():
    modal = modal_fixture().inner[0]
    validate(wrap(modal))
    explicit = Connection(PortRef((), "Go"), (PortRef(("Ctrl",), "Go"),))
    tampered = wrap(replace(modal, connections=(explicit,)))
    assert "no explicit connections" in problems_of(tampered)


def test_inout_pairs_reserved_for_controllers():
    plain = ActorNode(
        "M",
        FSM,
        ports=(Port("P", IN), Port("P", OUT)),
        locations=("s",),
        init_location="s",
    )
    assert "only allowed on" in problems_of(wrap(plain))


def setvar(ports=(Port("input", IN),), name="S", **parameters):
    return ActorNode(name, SETVAR, ports=ports, parameters=parameters)


def linked(source, sink):
    """A composite of a clock and a machine joined by one connection."""
    return wrap(clock("K"), machine(), connections=(Connection(source, (sink,)),))


def modal_of(controller, refinements):
    """A modal actor whose inner actors are the clock K and machines Ctrl and R."""
    ctrl = ActorNode("Ctrl", FSM, locations=("a",), init_location="a")
    ref = ActorNode("R", FSM, locations=("s",), init_location="s")
    return wrap(ActorNode("Mode", MODAL, inner=(clock("K"), ctrl, ref), controller=controller, refinements=refinements))


@pytest.mark.parametrize(
    "tree, problems",
    [
        (
            wrap(machine(Transition("gone", "s", IsPresent("In")))),
            ["Top.M: transition gone->s leaves unknown location"],
        ),
        (
            linked(PortRef((), "Ghost"), PortRef(("M",), "In")),
            ["Top: connection source parent.Ghost is not an input port"],
        ),
        (
            linked(PortRef(("K",), "nope"), PortRef(("M",), "In")),
            ["Top: connection source K.nope is not an output port"],
        ),
        (
            linked(PortRef(("K",), "output"), PortRef((), "Ghost")),
            ["Top: connection sink parent.Ghost is not an output port"],
        ),
        (
            linked(PortRef(("K",), "output"), PortRef(("Ghost",), "In")),
            ["Top: connection sink names unknown actor Ghost.In"],
        ),
        (wrap(clock("9K")), ["Top.9K: invalid actor name '9K'"]),
        (wrap(ActorNode("X", "gizmo")), ["Top.X: unknown actor kind 'gizmo'"]),
        (
            wrap(replace(machine(), ports=(Port("In", "sideways"),))),
            ["Top.M: port In has invalid direction 'sideways'"],
        ),
        (
            wrap(replace(machine(), ports=(Port("In", IN), Port("In", IN)))),
            ["Top.M: duplicate port In (in)"],
        ),
        (
            wrap(setvar(ports=(Port("input", IN), Port("more", IN)), target=StringVal("x")), variables={"x": IntVal(0)}),
            ["Top.S: a variable setter has exactly one input port 'input'"],
        ),
        (wrap(setvar(target=IntVal(1))), ["Top.S: missing string parameter 'target'"]),
        (
            wrap(replace(machine(), locations=(), init_location=None)),
            ["Top.M: initial location None undeclared", "Top.M: state machine has no locations"],
        ),
        (wrap(clock("K"), clock("K")), ["Top: duplicate inner actor 'K'"]),
        (
            modal_of("K", {"s": "R"}),
            ["Top.Mode: controller 'K' must be a state machine"],
        ),
        (
            modal_of("Ctrl", {"a": "Ctrl"}),
            [
                "Top.Mode: inner actor 'K' is neither the controller nor a refinement",
                "Top.Mode: inner actor 'R' is neither the controller nor a refinement",
                "Top.Mode: the controller cannot refine a location",
            ],
        ),
        # A setter with no composite above it: the nearest enclosing
        # composite's variables are None.
        (
            setvar(target=StringVal("x")),
            [
                "S: target variable 'x' is not declared by the enclosing composite",
                "S: top-level actor must be a composite",
            ],
        ),
    ],
    ids=[
        "unknown-source-location",
        "source-not-an-input",
        "source-not-an-output",
        "sink-not-an-output",
        "sink-unknown-actor",
        "invalid-name",
        "unknown-kind",
        "invalid-direction",
        "duplicate-port",
        "setter-ports",
        "setter-target-not-a-string",
        "no-locations",
        "duplicate-inner-actor",
        "controller-not-a-machine",
        "controller-refines",
        "setter-outside-any-composite",
    ],
)
def test_each_validation_problem_has_its_exact_text(tree, problems):
    with pytest.raises(ValidationError) as err:
        validate(tree)
    assert list(err.value.problems) == problems


def test_fixture_models_validate(hier_state, flat_state, mutant_state):
    for state in (hier_state, flat_state, mutant_state):
        validate(state.network.template)


def flat_with(name, edit):
    """The flat fixture with ``edit`` applied to its actor ``name``."""
    top = load_model("flat_traffic_light.model")
    return replace(top, inner=tuple(edit(c) if c.name == name else c for c in top.inner))


def first_guard_reads_nope(fsm):
    first, *rest = fsm.transitions
    return replace(fsm, transitions=(replace(first, guard=IsPresent("Nope")), *rest))


def second_writer(top):
    extra = Connection(PortRef(("TimedDelay1",), "output"), (PortRef(("CarLight",), "Sec"),))
    return replace(top, connections=top.connections + (extra,))


@pytest.mark.parametrize(
    "tree, problem",
    [
        (
            flat_with("Clock", lambda c: replace(c, parameters={"emit": IntVal(1)})),
            "FlatTrafficLight.Clock: missing parameter 'period'",
        ),
        (
            flat_with("Clock", lambda c: replace(c, parameters={"period": StringVal("x")})),
            "FlatTrafficLight.Clock: parameter 'period' must be a time amount",
        ),
        (
            flat_with("CarLight", first_guard_reads_nope),
            "FlatTrafficLight.CarLight: guard of transition Cgrn->Cgrn reads unknown port 'Nope'",
        ),
        (
            flat_with("CarLight", lambda c: replace(c, init_location="Zzz")),
            "FlatTrafficLight.CarLight: initial location 'Zzz' undeclared",
        ),
        (
            flat_with("SetCgrn", lambda c: replace(c, parameters={"target": StringVal("Ghost")})),
            "FlatTrafficLight.SetCgrn: target variable 'Ghost' is not declared by the enclosing composite",
        ),
        (
            second_writer(load_model("flat_traffic_light.model")),
            "FlatTrafficLight: port CarLight.Sec has more than one writer",
        ),
    ],
    ids=["no-period", "string-period", "undeclared-port", "undeclared-initial", "undeclared-target", "two-writers"],
)
def test_a_state_validates_its_tree_as_initialize_does(tree, problem):
    # ``initialize`` is the one way to a state: it lists every problem that
    # ``validate`` finds on the normalized tree, before compiling anything.
    with pytest.raises(ValidationError) as at_initialize:
        initialize(tree)
    with pytest.raises(ValidationError) as validated:
        validate(normalize(tree))
    assert problem in at_initialize.value.problems
    assert at_initialize.value.problems == validated.value.problems


def test_derived_trees_hash_like_freshly_built_ones(hier_state, flat_state, mutant_state):
    def rebuilt(node):
        # Through the constructor: sorts again and caches nothing.
        return ActorNode(
            **{
                f.name: getattr(node, f.name)
                for f in node.__dataclass_fields__.values()
                if f.name != "inner"
            },
            inner=tuple(rebuilt(c) for c in node.inner),
        )

    # A network's template is normalized, which rebuilds nodes without
    # the constructor.
    for state in (hier_state, flat_state, mutant_state):
        derived = state.network.template
        fresh = rebuilt(derived)
        assert fresh == derived
        assert hash(fresh) == hash(derived)
