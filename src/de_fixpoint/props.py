"""Atomic state propositions for the temporal logic layer.

Two forms exist: variable propositions ("this actor's variables carry
these values", where parameters serve as fallback for names the actor
never reassigns) and location propositions ("this state machine stands
in this location"; on a modal actor it asks about the controller).
Propositions are evaluated against full system snapshots and are the
only way formulas observe a run.  Each proposition is compiled once per
network into readers of the location or value slots: one of a state, and
one of a whole list of states, which a state graph uses to compute a
proposition's truth on every node in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import NoSuchLocation, NoSuchVariable, NotAnFsm
from .model import FSM, MODAL
from .state import SystemState
from .util import hash_once
from .values import BoolVal, literal_text


def _value_text(v) -> str:
    # Booleans capitalize at the formula level, unlike in model files.
    if isinstance(v, BoolVal):
        return "True" if v.value else "False"
    return literal_text(v)


@hash_once
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


@hash_once
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
    return _readers(state.network, prop)[0](state)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def pack_row(row) -> int:
    """A non-empty row of truths as an int whose bit i is ``row[i]``."""
    return int(bytes(row[::-1]).translate(_DIGITS), 2)


def prop_row(states, prop) -> tuple:
    """``prop_holds`` on each of ``states``, in one pass over their slots.

    The states must share one network, as a state graph's nodes do.  The
    row raises what ``prop_holds`` raises on the first state, or, for a
    variable proposition naming a missing variable, on the first state
    whose check reaches that name.
    """
    return _readers(states[0].network, prop)[1](states)


def _readers(network, prop):
    readers = network.prop_readers.get(prop)
    if readers is None:
        readers = network.prop_readers[prop] = _compile(network, prop)
    return readers


def _compile(network, prop):
    """Two functions deciding ``prop``, or raising as it would: one of a
    state, and one of a list of states that gives the tuple of their truths.

    A bad actor path, or a location its machine does not declare, raises
    here; an actor with no locations or a bad variable raises when the
    reader reaches it, as the check goes name by name.
    """
    i = network.actor(prop.actor)
    if isinstance(prop, LocProp):
        if network.kinds[i] == MODAL:
            i = next(m.controller for m in network.modals if m.index == i)
        location = prop.location
        label = ".".join(prop.actor)
        if network.kinds[i] == FSM and location not in network.nodes[i].locations:
            raise NoSuchLocation(f"{'.'.join(network.paths[i])} has no location '{location}'")

        def at(state):
            actual = state.locations[i]
            if actual is None:
                raise NotAnFsm(f"{label} has no locations")
            return actual == location

        def row(states):
            # Which actors have locations is fixed by the network.
            at(states[0])
            return tuple([state.locations[i] == location for state in states])

        return at, row
    if isinstance(prop, VarProp):
        slots = network.slots[i]
        parameters = network.nodes[i].parameters
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

        read = [(slot, value) for slot, value, _, _ in checks if slot is not None]
        if read and len(read) == len(checks):
            # Every name is a variable: one slot reads a value, several a
            # tuple, to compare at once.
            get = itemgetter(*(slot for slot, _ in read))
            want = read[0][1] if len(read) == 1 else tuple(value for _, value in read)

            def row(states):
                return tuple([get(state.values) == want for state in states])

        else:
            # A parameter, a missing name or no name at all.  Whether a
            # state raises depends on the checks before a missing name, so
            # each state goes through them.
            def row(states):
                return tuple([holds(state) for state in states])

        return holds, row
    raise TypeError(f"not a proposition: {prop!r}")
