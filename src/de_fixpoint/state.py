"""Complete system snapshots: every actor's dynamic state plus the event queue.

A state is a flat record over its model's compiled network (see
network.py).  It holds, indexed by actor, port id or value slot:

* ``locations``: each state machine's current location (None for other
  actors);
* ``values``: each variable's value;
* ``mode``: the :class:`~network.Mode` its locations select, with the
  enabled flags (``state.enabled``), live actors and fixed-point rules;
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

The actor tree (``top``), the queue with exact rational times
(``queue``) and the elapsed time as a rational (``elapsed``) are views
for printers, tests and library callers.  They are built from the slots
on first use and kept; the engine never needs them.  A state built from
a tree and a queue reads both once, as the engine would have built them,
and keeps neither.  Its network normalizes and validates the tree, as
the one ``initialize`` builds does, so every state the engine runs on
has a network compiled from a validated tree.
"""

from __future__ import annotations

from fractions import Fraction

from .events import EMPTY_QUEUE, EventQueue, queue_view, schedule
from .model import ActorNode
from .network import Mode, Network, map_ports, to_ticks
from .util import time_amount


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
        "_top",
        "_queue",
    )

    def __init__(
        self,
        top: ActorNode,
        queue: EventQueue = EMPTY_QUEUE,
        elapsed: Fraction = Fraction(0),
        microstep_of_instant: int = 0,
    ):
        """The state a tree and a queue describe.

        ``top`` is compiled into a :class:`~network.Network`, which
        normalizes it (see ``model.normalize``), so a state machine with
        no current location stands in its initial one, and validates it:
        an ill-formed tree raises the ``ValidationError`` that
        ``initialize`` raises, with every problem.  The
        queue is read event by event, as ``EventQueue.add`` would have
        scheduled each: entries come out in tag order, one per tag, and a
        later event for a port replaces an earlier one at the same tag.
        A negative time (a queue entry's or ``elapsed``) raises
        ``NegativeTimer`` and a negative microstep (a queue entry's or
        ``microstep_of_instant``) ``ValueError``.  Every time must be a
        multiple of the tree's timebase.  Which actors are enabled
        follows from the locations (``self.enabled``).
        """
        network = self.network = Network(top)
        self.locations, self.values, self.statuses = network.flatten(network.template)
        self.mode = network.mode(self.locations)
        entries = ()
        for entry in queue.entries:
            if entry.microstep < 0:
                raise ValueError("microstep must be non-negative")
            time = to_ticks(time_amount(entry.time), network.timebase)
            for event in entry.events:
                (flat,) = network.flat_events((event,))
                entries = schedule(entries, time, entry.microstep, flat, network)
        self.entries = entries
        self.now = to_ticks(time_amount(elapsed), network.timebase)
        if microstep_of_instant < 0:
            raise ValueError("microstep must be non-negative")
        self.microstep_of_instant = microstep_of_instant
        self._hash = self._top = self._queue = None

    @property
    def top(self) -> ActorNode:
        """The actor tree with this state's dynamic side."""
        if self._top is None:
            self._top = map_ports(self.network, self.locations, self.values, self.statuses)
        return self._top

    @property
    def enabled(self) -> tuple:
        """Each actor's enabled flag, as the locations imply it."""
        return self.mode.enabled

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
        return make_state(
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


def make_state(network: Network, mode: Mode, locations, values, statuses, entries, now, microstep) -> SystemState:
    """A state from its slots, as the engine builds them; ``mode`` must be
    ``network.mode(locations)``."""
    state = _new(SystemState)
    state.network = network
    state.mode = mode
    state.locations = locations
    state.values = values
    state.statuses = statuses
    state.entries = entries
    state.now = now
    state.microstep_of_instant = microstep
    state._hash = state._top = state._queue = None
    return state


_new = object.__new__


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
