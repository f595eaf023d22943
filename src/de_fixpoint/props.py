"""Atomic state propositions for the temporal logic layer.

Two forms exist: variable propositions ("this actor's variables carry
these values", where parameters serve as fallback for names the actor
never reassigns) and location propositions ("this state machine stands
in this location"; on a modal actor it asks about the controller).
Propositions are evaluated against full system snapshots and are the
only way formulas observe a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSuchVariable, NotAnFsm
from .model import FSM, MODAL, resolve
from .state import SystemState
from .values import BoolVal, literal_text


def _value_text(v) -> str:
    # Booleans capitalize at the formula level, unlike in model files.
    if isinstance(v, BoolVal):
        return "True" if v.value else "False"
    return literal_text(v)


@dataclass(frozen=True)
class VarProp:
    """Holds when every listed variable of the actor equals its value."""

    actor: tuple  # absolute path, starting at the top actor's name
    assignments: tuple  # ((name, Value), ...)

    def __post_init__(self):
        object.__setattr__(self, "actor", tuple(self.actor))
        object.__setattr__(self, "assignments", tuple(self.assignments))

    def __repr__(self):
        path = " . ".join(f"'{n}" for n in self.actor)
        pairs = ", ".join(f"'{n} = {_value_text(v)}" for n, v in self.assignments)
        return f"{path} | ({pairs})"


@dataclass(frozen=True)
class LocProp:
    """Holds when the state machine (or modal controller) is in the location."""

    actor: tuple
    location: str

    def __post_init__(self):
        object.__setattr__(self, "actor", tuple(self.actor))

    def __repr__(self):
        path = " . ".join(f"'{n}" for n in self.actor)
        return f"{path} @ '{self.location}"


def prop_holds(state: SystemState, prop) -> bool:
    node = resolve(state.top, prop.actor)
    if isinstance(prop, LocProp):
        if node.kind == MODAL:
            node = node.child(node.controller)
        if node.kind != FSM or node.curr_location is None:
            raise NotAnFsm(f"{'.'.join(prop.actor)} has no locations")
        return node.curr_location == prop.location
    if isinstance(prop, VarProp):
        for name, value in prop.assignments:
            if name in node.variables:
                actual = node.variables[name]
            elif name in node.parameters:
                actual = node.parameters[name]
            else:
                raise NoSuchVariable(f"{'.'.join(prop.actor)} has no variable '{name}'")
            if actual != value:
                return False
        return True
    raise TypeError(f"not a proposition: {prop!r}")
