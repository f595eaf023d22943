"""State propositions: location and variable checks against live states."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.checker import check_ltl
from de_fixpoint.errors import NoSuchActor, NoSuchLocation, NoSuchVariable, NotAnFsm
from de_fixpoint.formula import Always, Atom
from de_fixpoint.graph import build_state_graph, search
from de_fixpoint.model import FSM
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.props import LocProp, VarProp, pack_row, prop_holds, prop_row
from de_fixpoint.values import BoolVal, IntVal, TimeVal
from fractions import Fraction

import families

HTL = ("HierarchicalTrafficLight",)


def test_location_of_a_machine(hier_state):
    assert prop_holds(hier_state, LocProp(HTL + ("Decision",), "Dinit"))
    assert not prop_holds(hier_state, LocProp(HTL + ("Decision",), "Normal"))


def test_location_inside_nested_refinement(hier_state):
    deep = HTL + ("TrafficLight", "error", "ErrorLight")
    assert prop_holds(hier_state, LocProp(deep, "Einit"))


def test_modal_location_reads_its_controller(hier_state):
    modal = HTL + ("TrafficLight",)
    assert prop_holds(hier_state, LocProp(modal, "normal"))
    assert not prop_holds(hier_state, LocProp(modal, "error"))


def test_variables_of_a_composite(hier_state):
    assert prop_holds(
        hier_state,
        VarProp(HTL, (("Cred", IntVal(0)), ("Pgrn", IntVal(0)))),
    )
    assert not prop_holds(hier_state, VarProp(HTL, (("Cred", IntVal(1)),)))


def test_variable_list_is_a_conjunction(flat_state):
    prop = VarProp(("FlatTrafficLight",), (("Cred", IntVal(0)), ("Cyel", IntVal(1))))
    assert not prop_holds(flat_state, prop)  # Cyel is 0, so one conjunct fails


def test_parameters_answer_when_no_variable_shadows_them(hier_state):
    clock = HTL + ("Clock",)
    assert prop_holds(hier_state, VarProp(clock, (("period", IntVal(1)),)))
    assert not prop_holds(hier_state, VarProp(clock, (("period", IntVal(2)),)))
    # Written as `period = 1` the parameter is an integer; the time kind
    # does not compare equal even at the same magnitude.
    assert not prop_holds(
        hier_state, VarProp(clock, (("period", TimeVal(Fraction(1))),))
    )


def test_fsm_variables_visible(hier_state):
    car = HTL + ("TrafficLight", "normal", "CarLight")
    assert prop_holds(hier_state, VarProp(car, (("count", IntVal(0)),)))


def test_missing_actor_variable_location_raise(hier_state):
    with pytest.raises(NoSuchActor):
        prop_holds(hier_state, LocProp(HTL + ("Ghost",), "x"))
    with pytest.raises(NoSuchVariable):
        prop_holds(hier_state, VarProp(HTL, (("ghost", IntVal(0)),)))
    with pytest.raises(NotAnFsm):
        prop_holds(hier_state, LocProp(HTL, "anywhere"))  # composite, no locations
    with pytest.raises(NotAnFsm):
        prop_holds(hier_state, LocProp(HTL + ("Clock",), "tick"))
    # A location the machine does not declare is an error, not a
    # proposition that never holds.
    with pytest.raises(NoSuchLocation, match=r"^HierarchicalTrafficLight\.Decision has no location 'Nowhere'$"):
        prop_holds(hier_state, LocProp(HTL + ("Decision",), "Nowhere"))


def test_kind_mismatched_value_is_just_false(hier_state):
    assert not prop_holds(hier_state, VarProp(HTL, (("Cred", BoolVal(False)),)))


def test_false_prop_on_known_names_is_not_an_error(hier_state):
    assert not prop_holds(hier_state, VarProp(HTL, (("Cred", IntVal(999)),)))
    with pytest.raises(NoSuchVariable):
        prop_holds(hier_state, VarProp(HTL, (("nope", IntVal(0)),)))


# A proposition's row over the nodes of a graph. -----------------------------------

CLOCK = HTL + ("Clock",)
ROW_PROPS = [
    LocProp(HTL + ("Decision",), "Normal"),
    LocProp(HTL + ("TrafficLight",), "error"),  # a modal: its controller
    LocProp(HTL + ("TrafficLight", "error", "ErrorLight"), "Eon"),
    VarProp(HTL, (("Cred", IntVal(1)),)),
    VarProp(HTL, (("Pgrn", IntVal(1)), ("Cgrn", IntVal(0)))),
    VarProp(HTL, (("Cred", IntVal(1)), ("Cred", IntVal(0)))),
    VarProp(HTL, (("Cred", BoolVal(False)),)),
    VarProp(CLOCK, (("period", IntVal(1)),)),  # a parameter that holds
    VarProp(CLOCK, (("period", IntVal(2)),)),  # one that does not
    VarProp(HTL + ("TrafficLight", "normal", "CarLight"), (("count", IntVal(0)),)),
]


@pytest.mark.parametrize("prop", ROW_PROPS, ids=repr)
def test_a_row_is_prop_holds_on_every_node(hier_graph, prop):
    nodes = hier_graph.nodes
    row = prop_row(nodes, prop)
    assert row == pack_row([prop_holds(state, prop) for state in nodes])
    assert 0 <= row < 1 << len(nodes)


def test_a_row_raises_where_prop_holds_would(hier_graph):
    nodes = hier_graph.nodes
    # A missing name raises on every node, and for the row, wherever it
    # stands: after a name whose value holds on some nodes (Cred = 1) and
    # after one whose value holds on none (Cred = 999).
    for first in (IntVal(1), IntVal(999)):
        late = VarProp(HTL, (("Cred", first), ("ghost", IntVal(0))))
        for state in nodes:
            with pytest.raises(NoSuchVariable, match=r"^HierarchicalTrafficLight has no variable 'ghost'$"):
                prop_holds(state, late)
        with pytest.raises(NoSuchVariable):
            prop_row(nodes, late)
    with pytest.raises(NotAnFsm):
        prop_row(nodes, LocProp(HTL, "anywhere"))
    with pytest.raises(NoSuchActor):
        prop_row(nodes, LocProp(HTL + ("Ghost",), "x"))
    # On a modal actor the location is its controller's.
    with pytest.raises(NoSuchLocation, match=r"^HierarchicalTrafficLight\.TrafficLight\.Ctrl has no location 'nowhere'$"):
        prop_row(nodes, LocProp(HTL + ("TrafficLight",), "nowhere"))


# A missing name is an error wherever it stands: after a name whose value
# holds on some nodes (Cred = 1), after one whose value holds on none
# (Pgrn = 999), and after a parameter that holds (period = 1) or not.
MISSING_AFTER = [
    (HTL, (("Cred", IntVal(1)), ("Pgrn", IntVal(999)))),
    (CLOCK, (("period", IntVal(1)),)),
    (CLOCK, (("period", IntVal(2)),)),
]


def test_a_missing_variable_raises_wherever_it_stands(hier_graph):
    nodes = hier_graph.nodes
    for actor, assignments in MISSING_AFTER:
        message = "^" + re.escape(f"{'.'.join(actor)} has no variable 'ghost'") + "$"
        for position in range(len(assignments) + 1):
            listed = list(assignments)
            listed.insert(position, ("ghost", IntVal(0)))
            prop = VarProp(actor, listed)
            for state in nodes:
                with pytest.raises(NoSuchVariable, match=message):
                    prop_holds(state, prop)
            with pytest.raises(NoSuchVariable, match=message):
                prop_row(nodes, prop)
            for graph in (hier_graph, replace(hier_graph)):
                with pytest.raises(NoSuchVariable, match=message):
                    search(graph, prop)
                with pytest.raises(NoSuchVariable, match=message):
                    check_ltl(graph, Always(Atom(prop)))


GHOST = "ghost_"  # no generated or fixture model has a name like it
UNSEEN = IntVal(-12345)  # nor a value


def generated_graph(text):
    return build_state_graph(initialize(parse_model(text)))


@st.composite
def propositions(draw, graph):
    """A location or variable proposition on one of the graph's actors.

    A location is one its machine declares (a modal actor's controller's
    for a modal actor).  An assignment list names the actor's variables,
    its parameters and, now and then, a name it lacks, repeats allowed, and
    each name a value it takes on the graph, or its parameter value, or one
    it never takes.
    """
    network = graph.nodes[0].network
    i = draw(st.sampled_from(network.preorder))
    path, node, slots = network.paths[i], network.nodes[i], network.slots[i]
    machine = i if network.kinds[i] == FSM else next((m.controller for m in network.modals if m.index == i), None)
    if machine is not None and draw(st.booleans()):
        return LocProp(path, draw(st.sampled_from(network.nodes[machine].locations)))
    values = {name: {state.values[slot] for state in graph.nodes} for name, slot in slots.items()}
    for name, value in node.parameters.items():
        values.setdefault(name, {value})
    values[GHOST] = set()
    names = sorted(values)
    assignment = st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(sorted(values[name] | {UNSEEN}, key=repr)))
    )
    return VarProp(path, draw(st.lists(assignment, min_size=1, max_size=4)))


@settings(max_examples=60)
@given(data=st.data())
def test_a_bit_row_is_prop_holds_on_every_node(flat_graph, hier_graph, mutant_graph, data):
    graph = data.draw(
        st.one_of(st.sampled_from((flat_graph, hier_graph, mutant_graph)), families.MODELS.map(generated_graph))
    )
    prop = data.draw(propositions(graph))
    nodes = graph.nodes
    fresh = replace(graph)  # nothing kept yet
    if isinstance(prop, VarProp) and any(name == GHOST for name, _ in prop.assignments):
        for state in nodes:
            with pytest.raises(NoSuchVariable):
                prop_holds(state, prop)
        with pytest.raises(NoSuchVariable):
            fresh.atom_bits(prop)
        return
    bits = fresh.atom_bits(prop)
    assert bits >> len(nodes) == 0
    assert [bits >> i & 1 == 1 for i in range(len(nodes))] == [prop_holds(state, prop) for state in nodes]


def test_repr_is_reparseable(hier_state):
    from de_fixpoint.formula_parser import parse_prop

    for prop in (
        LocProp(HTL + ("Decision",), "Dinit"),
        VarProp(HTL, (("Cred", IntVal(0)), ("Pgrn", IntVal(1)))),
        VarProp(HTL, (("ok", BoolVal(True)),)),
    ):
        assert parse_prop(repr(prop)) == prop


class Counted:
    """A value that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        Counted.calls += 1
        return 7


def test_a_proposition_hashes_once_as_its_field_tuple():
    # Propositions key compiled readers and graph rows, so they are hashed
    # on every check; the hash is computed once and is the frozen
    # dataclass's field-tuple hash, so dict and set orders stay as they were.
    value = Counted()
    prop = VarProp(list(HTL), [("n", value)])
    want = hash((HTL, (("n", value),)))
    Counted.calls = 0
    assert [hash(prop) for _ in range(3)] == [want] * 3
    assert Counted.calls == 1
    loc = LocProp(HTL + ("Decision",), "Dinit")
    assert hash(loc) == hash(loc) == hash((HTL + ("Decision",), "Dinit"))
    assert loc == LocProp(list(HTL + ("Decision",)), "Dinit")
