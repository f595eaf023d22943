"""State propositions: location and variable checks against live states."""

import pytest

from de_fixpoint.errors import NoSuchActor, NoSuchLocation, NoSuchVariable, NotAnFsm
from de_fixpoint.props import LocProp, VarProp, prop_holds, prop_row
from de_fixpoint.values import BoolVal, IntVal, TimeVal
from fractions import Fraction

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
    row = prop_row(hier_graph.nodes, prop)
    assert row == tuple(prop_holds(state, prop) for state in hier_graph.nodes)
    assert all(truth is True or truth is False for truth in row)


def test_a_row_raises_where_prop_holds_would(hier_graph):
    nodes = hier_graph.nodes
    # The check reaches the missing name only where Cred is 1, which it
    # is not on node 0.
    late = VarProp(HTL, (("Cred", IntVal(1)), ("ghost", IntVal(0))))
    assert not prop_holds(nodes[0], late)
    with pytest.raises(NoSuchVariable):
        prop_row(nodes, late)
    # A missing name that no node reaches raises nothing, as state by state.
    never = VarProp(HTL, (("Cred", IntVal(999)), ("ghost", IntVal(0))))
    assert prop_row(nodes, never) == (False,) * len(nodes)
    with pytest.raises(NotAnFsm):
        prop_row(nodes, LocProp(HTL, "anywhere"))
    with pytest.raises(NoSuchActor):
        prop_row(nodes, LocProp(HTL + ("Ghost",), "x"))
    # On a modal actor the location is its controller's.
    with pytest.raises(NoSuchLocation, match=r"^HierarchicalTrafficLight\.TrafficLight\.Ctrl has no location 'nowhere'$"):
        prop_row(nodes, LocProp(HTL + ("TrafficLight",), "nowhere"))


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
