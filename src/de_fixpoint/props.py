"""Atomic state propositions for the temporal logic layer.

Two forms exist: variable propositions ("this actor's variables carry
these values", where parameters serve as fallback for names the actor
never reassigns) and location propositions ("this state machine stands
in this location"; on a modal actor it asks about the controller).
Propositions are evaluated against full system snapshots and are the
only way formulas observe a run.  Each proposition is compiled once per
network into one reader: the slot it reads in a state's locations, or a
getter of the slots it reads in a state's values, and the value that
must be there.  Compiling resolves every name, so a name the model lacks
raises there, whatever the states hold, and folds parameters in as
constants.  ``prop_holds`` applies the reader to one state, and
``prop_row`` to a list of states in one pass, packing their truths into
an int whose bit i is state i's; a state graph keeps a proposition's
truth on its nodes only in that form.
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
    at, get, want = _reader(state.network, prop)
    return (get(state.values) if at is None else state.locations[at]) == want


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def pack_row(row) -> int:
    """A non-empty row of truths as an int whose bit i is ``row[i]``."""
    return int(bytes(row[::-1]).translate(_DIGITS), 2)


def prop_row(states, prop) -> int:
    """``prop_holds`` on each of ``states``, packed as ``pack_row`` packs.

    The states must be non-empty and share one network, as a state
    graph's nodes do.  The row is read from the last state to the first,
    the order of the digits of a binary numeral.
    """
    at, get, want = _reader(states[0].network, prop)
    if at is None:
        truths = [get(state.values) == want for state in reversed(states)]
    else:
        truths = [state.locations[at] == want for state in reversed(states)]
    return int(bytes(truths).translate(_DIGITS), 2)


def _reader(network, prop):
    reader = network.prop_readers.get(prop)
    if reader is None:
        reader = network.prop_readers[prop] = _compile(network, prop)
    return reader


_NOTHING = itemgetter(slice(0))  # any tuple -> ()


def _compile(network, prop):
    """``prop`` as (at, get, want).  A location proposition holds on a
    state exactly when ``state.locations[at] == want``, and a variable
    proposition, whose ``at`` is None, when ``get(state.values) == want``.

    ``get`` reads the value slots the proposition names, one value or a
    tuple of several.  Every name is resolved here, so a bad actor path,
    an actor with no locations, a location its machine does not declare
    or a missing variable raises here, whatever the states hold.  A
    parameter never changes, so it is compared here: one that differs
    makes the proposition false on every state, and one that agrees
    drops out.
    """
    i = network.actor(prop.actor)
    label = ".".join(prop.actor)
    if isinstance(prop, LocProp):
        if network.kinds[i] == MODAL:
            i = next(m.controller for m in network.modals if m.index == i)
        if network.kinds[i] != FSM:
            raise NotAnFsm(f"{label} has no locations")
        if prop.location not in network.nodes[i].locations:
            raise NoSuchLocation(f"{'.'.join(network.paths[i])} has no location '{prop.location}'")
        # A subscript, not a getter: the row over a graph's nodes is a
        # fifth faster.
        return i, None, prop.location
    if isinstance(prop, VarProp):
        slots, parameters = network.slots[i], network.nodes[i].parameters
        read, want, agree = [], [], True
        for name, value in prop.assignments:
            if name in slots:
                read.append(slots[name])
                want.append(value)
            elif name in parameters:
                agree = agree and parameters[name] == value
            else:
                raise NoSuchVariable(f"{label} has no variable '{name}'")
        if not agree or not read:
            # Constant: every state's values give (), equal to () and not to None.
            return None, _NOTHING, () if agree else None
        if len(read) == 1:
            return None, itemgetter(read[0]), want[0]
        return None, itemgetter(*read), tuple(want)
    raise TypeError(f"not a proposition: {prop!r}")
