"""Complete system snapshots: every actor's dynamic state plus the event queue.

A state is a flat record over its model's compiled network (see
network.py).  It holds, indexed by actor, port id or value slot:

* ``locations``: each state machine's current location (None for other
  actors);
* ``values``: each variable's value;
* ``mode``: the :class:`~network.Mode` its locations select, with the
  enabled flags (``mode.enabled``), live actors and fixed-point rules;
* ``statuses``: each port's status as the last iteration left it, stale
  statuses of ports that have not been resolved since included;
* ``entries``: the pending-event queue, in ticks of the timebase (see
  events.py);
* ``now`` and ``microstep_of_instant``: the absolute time in ticks and
  the microstep index within the current instant.

Equality and hashing deliberately ignore how much time has elapsed and
the microstep index within the current instant.  Two states that agree
on every actor's mode, variables, and port contents, and on the relative
schedule of future events, behave identically forever — that is the
identification that makes periodic models have finite state graphs.
Searches that need real timestamps keep them separately (see graph.py).
The mode follows from the locations, so neither equality nor the hash
looks at it.  The hash is computed once per state, over every other
slot but the port statuses: states that differ only there are rare (the
63 states of the hierarchical traffic light have 61 distinct hash
inputs), equality still tells them apart, and hashing the statuses
would cost more than the rest together.

A state is slots and nothing else, and it has one constructor, which
takes them as they are.  ``initialize`` builds a run's first state (see
postfire.py), whose network has normalized and validated the model's
tree, and every later state is built from the one before by an engine
phase, sharing its network.  No tree is built from a state or describes
one: callers read it flat, through ``fsm_locations``,
``collect_variables``, ``statuses[network.ids[key]]`` and the network's
template.  The queue with exact rational times (``queue``) and the
elapsed time as a rational (``elapsed``) are views for printers and
library callers, built from the slots on first use; the engine never
needs them.
"""

from __future__ import annotations

from fractions import Fraction

from .events import EventQueue, queue_view
from .network import Mode, Network


class SystemState:
    __slots__ = (
        "network",
        "locations",
        "values",
        "mode",
        "statuses",
        "entries",
        "now",
        "microstep_of_instant",
        "_hash",
        "_queue",
    )

    def __init__(self, network: Network, mode: Mode, locations, values, statuses, entries, now, microstep):
        """A state from its slots, as the engine builds them; ``mode`` must be
        ``network.mode(locations)``."""
        self.network = network
        self.mode = mode
        self.locations = locations
        self.values = values
        self.statuses = statuses
        self.entries = entries
        self.now = now
        self.microstep_of_instant = microstep
        self._hash = self._queue = None

    @property
    def queue(self) -> EventQueue:
        """The pending events, at exact rational times."""
        if self._queue is None:
            self._queue = queue_view(self.entries, self.network)
        return self._queue

    @property
    def elapsed(self) -> Fraction:
        """The absolute time, as an exact rational."""
        return Fraction(self.now, self.network.timebase)

    def requeued(self, entries, now: int, microstep: int) -> "SystemState":
        """This state with another queue, time and microstep."""
        return SystemState(
            self.network, self.mode, self.locations, self.values, self.statuses, entries, now, microstep
        )

    def queue_summary(self) -> list:
        """``self.queue.summary()``, without building the events."""
        base = self.network.timebase
        return [(Fraction(t, base), m, len(events)) for t, m, events in self.entries]

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.locations, self.values, self.entries))
        return h

    def __eq__(self, other):
        if other.__class__ is not SystemState:
            return NotImplemented
        return self is other or (
            (self.network is other.network or self.network.signature == other.network.signature)
            and self.statuses == other.statuses
            and self.entries == other.entries
            and self.locations == other.locations
            and self.values == other.values
        )

    def __repr__(self):
        return (
            f"SystemState(t={self.elapsed}, m={self.microstep_of_instant}, "
            f"locations={fsm_locations(self)}, queue={self.queue_summary()})"
        )


def collect_variables(state: SystemState) -> dict:
    """Variable stores of every composite and state machine that has one,
    keyed by dotted path.

    Frozen refinements are included: their variables are still state,
    they just cannot change until the refinement is live again.
    """
    values = state.values
    return {
        path: {name: values[slot] for name, slot in slots}
        for path, slots in state.network.variable_groups
    }


def fsm_locations(state: SystemState) -> dict:
    """Current location of every state machine (live or frozen)."""
    locations = state.locations
    return {path: locations[i] for i, path in state.network.fsm_paths if locations[i] is not None}
