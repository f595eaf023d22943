"""State commitment after the fixed point, and model initialization.

The fixed point only computes port statuses and firing decisions; this
module turns those into the next system state.  Machines that fired move
to their target location and apply their variable updates (all update
expressions are evaluated against the pre-commit environment, so updates
within one transition are simultaneous).  Clocks that ticked reschedule
themselves, delays forward their input as a future event, and
variable-setting actors write into the enclosing composite's store
(the value slot the network resolved for them; of two setters that
write one variable in the same iteration, the later in preorder wins).
Frozen refinements commit nothing.  Which refinements are frozen
follows from the controllers' locations: in a model with modal actors,
a commit that moves a machine looks up the mode of the new locations
(see ``Network.mode``).

A commit costs what fired, not what the model holds: it visits only
the machines in the fixed point's decisions, then scans one flat
per-mode tuple of (trigger port id, kind, payload) for clocks, delays
and setters (``Mode.triggers``, in preorder) and acts on the present
ones.  Each clock, delay and setter compiled to its trigger once, when
the network was built (``Network.triggers``); a mode only selects the
live ones.  A clock's request is prebuilt; a delay's is built around
the status it forwards.  It reads and writes a state's slots by actor
index, port id and value slot (see state.py), and its scheduling
requests are (ticks, microstep, (port id, status)) triples, which
``commit_requests`` folds into the state's queue.  An iteration builds
at most two states: ``postfire`` builds the next one, and
``commit_requests`` a second only when there is something to schedule.

``initialize`` is the one way into a run.  It compiles the model's
network (see network.py), which normalizes and validates the tree first
and which every later state carries, takes the starting slots from it,
and schedules each live clock's first tick from the same trigger tuple,
at the offset the network keeps by the clock's output port
(``Network.offsets``).
Every state's network comes from a validated tree, so a commit finds
each variable it writes declared and checks nothing.
"""

from __future__ import annotations

from .events import schedule
from .model import CLOCK, DELAY, ActorNode
from .network import Network
from .state import SystemState
from .values import LONG_BITS, UNKNOWN, IntVal, Present, check_digits


def initialize(top: ActorNode) -> SystemState:
    """Normalize, validate, compile, and produce the starting state.

    Machines stand in their initial locations, each modal actor has the
    matching refinement live, every port is unknown, variables keep
    their values, and each live clock has its first tick scheduled at
    its offset.
    """
    network = Network(top)
    locations, values = network.flatten()
    mode = network.mode(locations)
    entries = ()
    for pid, kind, request in mode.triggers:
        if kind == CLOCK:
            entries = schedule(entries, network.offsets[pid], 0, request[2], network)
    return SystemState(network, mode, locations, values, (UNKNOWN,) * network.size, entries, 0, 0)


def postfire(state: SystemState, statuses, decisions):
    """Commit one iteration.  Returns (next state, scheduling requests).

    ``state`` is the state the iteration ran on, with the batch it
    delivered at the head of its queue; ``statuses`` (every port's status
    by port id) and ``decisions`` (the firing machines' compiled
    transitions by actor index) are what compute_fixpoint resolved.  The
    next state carries ``statuses`` and the queue without its head
    entry.  The machines in ``decisions`` move and update their
    variables; no other machine is looked at.  Then one scan over the
    mode's triggers finds the present ones: a ticked clock reschedules,
    a delay forwards its input, a setter writes its slot.  Slots that do
    not change are shared with ``state``.  The requests are in actor
    order; commit them with commit_requests to preserve the
    deterministic ordering.
    """
    network, mode = state.network, state.mode
    locations, values = state.locations, state.values
    new_locations = new_values = None
    # A machine's updates write its own variables and a setter writes a
    # composite's, so the machines can go first.
    for i, entry in decisions.items():
        if entry.updates:
            if new_values is None:
                new_values = list(values)
            for slot, name, fn in entry.updates:
                v = new_values[slot] = fn(statuses, values)
                if v.__class__ is IntVal and v.value.bit_length() > LONG_BITS:
                    check_digits(v.value, name)
        if entry.target != locations[i]:
            if new_locations is None:
                new_locations = list(locations)
            new_locations[i] = entry.target
    requests = []
    for pid, kind, arg in mode.triggers:
        status = statuses[pid]
        if status.__class__ is not Present:
            continue
        if kind == CLOCK:
            requests.append(arg)
        elif kind == DELAY:
            # A zero delay still takes one microstep: strictly later in
            # superdense time, same timestamp.
            delay, microstep, out = arg
            requests.append((delay, microstep, (out, status)))
        else:
            if new_values is None:
                new_values = list(values)
            new_values[arg] = status.value
    if new_locations is not None:
        locations = tuple(new_locations)
        if network.modals:
            mode = network.mode(locations)
    nxt = SystemState(
        network,
        mode,
        locations,
        values if new_values is None else tuple(new_values),
        statuses,
        state.entries[1:],
        state.now,
        state.microstep_of_instant,
    )
    return nxt, requests


def commit_requests(state: SystemState, requests) -> SystemState:
    """Fold a postfire's scheduling requests into the state's queue, in
    the order given; ``state`` itself when there are none."""
    if not requests:
        return state
    entries = state.entries
    for time, microstep, event in requests:
        entries = schedule(entries, time, microstep, event, state.network)
    return state.requeued(entries, state.now, state.microstep_of_instant)
