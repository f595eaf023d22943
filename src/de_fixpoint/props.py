"""Atomic state propositions for the temporal logic layer.

Two forms exist: variable propositions ("this actor's variables carry
these values", where parameters serve as fallback for names the actor
never reassigns) and location propositions ("this state machine stands
in this location"; on a modal actor it asks about the controller).
Propositions are evaluated against full system snapshots and are the
only way formulas observe a run.  Each proposition is compiled once per
network into a reader of the state's location or value slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSuchVariable, NotAnFsm
from .model import MODAL
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
    network = state.network
    reader = network.prop_readers.get(prop)
    if reader is None:
        reader = _compile(network, prop)
        network.prop_readers[prop] = reader
    return reader(state)


def _compile(network, prop):
    """A function of a state that decides ``prop``, or raises as it would.

    A bad actor path raises here; a bad location or variable raises when
    the reader reaches it, as the check goes name by name.
    """
    i = network.actor(prop.actor)
    if isinstance(prop, LocProp):
        if network.kinds[i] == MODAL:
            i = next(m.controller for m in network.modals if m.index == i)
        location = prop.location
        label = ".".join(prop.actor)

        def at(state):
            actual = state.locations[i]
            if actual is None:
                raise NotAnFsm(f"{label} has no locations")
            return actual == location

        return at
    if isinstance(prop, VarProp):
        slots = network.slots[i]
        parameters = network.nodes_of(network.template)[i].parameters
        checks = []  # (value slot or None, wanted value, parameter value or None, missing name)
        for name, value in prop.assignments:
            if name in slots:
                checks.append((slots[name], value, None, None))
            elif name in parameters:
                checks.append((None, value, parameters[name], None))
            else:
                checks.append((None, value, None, name))

        def holds(state):
            values = state.values
            for slot, value, fixed, missing in checks:
                if missing is not None:
                    raise NoSuchVariable(f"{'.'.join(prop.actor)} has no variable '{missing}'")
                actual = fixed if slot is None else values[slot]
                if actual != value:
                    return False
            return True

        return holds
    raise TypeError(f"not a proposition: {prop!r}")
