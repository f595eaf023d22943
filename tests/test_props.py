"""State propositions: location and variable checks against live states."""

import pytest

from de_fixpoint.errors import NoSuchActor, NoSuchVariable, NotAnFsm
from de_fixpoint.props import LocProp, VarProp, prop_holds
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


def test_kind_mismatched_value_is_just_false(hier_state):
    assert not prop_holds(hier_state, VarProp(HTL, (("Cred", BoolVal(False)),)))


def test_false_prop_on_known_names_is_not_an_error(hier_state):
    assert not prop_holds(hier_state, VarProp(HTL, (("Cred", IntVal(999)),)))
    with pytest.raises(NoSuchVariable):
        prop_holds(hier_state, VarProp(HTL, (("nope", IntVal(0)),)))


def test_repr_is_reparseable(hier_state):
    from de_fixpoint.formula_parser import parse_prop

    for prop in (
        LocProp(HTL + ("Decision",), "Dinit"),
        VarProp(HTL, (("Cred", IntVal(0)), ("Pgrn", IntVal(1)))),
        VarProp(HTL, (("ok", BoolVal(True)),)),
    ):
        assert parse_prop(repr(prop)) == prop
