"""State commitment after the fixed point, and model initialization.

The fixed point only computes port statuses and firing decisions; this
module turns those into the next system state.  Machines that fired move
to their target location and apply their variable updates (all update
expressions are evaluated against the pre-commit environment, so updates
within one transition are simultaneous).  Clocks that ticked reschedule
themselves, delays forward their input as a future event, and
variable-setting actors write into the enclosing composite's store.
Frozen refinements commit nothing.

A commit reads and writes a state's slots by actor index, port id and
value slot (see state.py), and its scheduling requests are (ticks,
microstep, (port id, status)) triples.  ``postfire`` given a tree reads
the tree's slots, commits the same way, and writes the changes back
into the tree with one ``network.map_ports``; its requests then carry
exact times and Event objects.

``initialize`` compiles the model's network (see network.py), which
every later state carries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownVariableTarget
from .events import Event, EventQueue, schedule
from .model import CLOCK, DELAY, FSM, ActorNode, PortRef, normalize, validate
from .network import Network, map_ports, network_of
from .state import SystemState, make_state
from .util import FrozenMap
from .values import UNKNOWN, Present


def initialize(top: ActorNode) -> SystemState:
    """Normalize, validate, compile, and produce the starting state.

    Machines stand in their initial locations, each modal actor has the
    matching refinement live, every port is unknown, variables keep
    their values, and each live clock has its first tick scheduled at
    its offset.
    """
    top = normalize(top)
    validate(top)
    network = network_of(top)
    locations, values, enabled, _ = network.flatten(top)
    locations = list(locations)
    for i, info in network.fsms.items():
        locations[i] = info.init_location
    enabled = _select_modes(network, locations, (True,) * len(enabled))
    live = network.mode(enabled).live
    entries = ()
    for i in network.preorder:
        if live[i] and i in network.clocks:
            clock = network.clocks[i]
            entries = schedule(entries, clock.offset, 0, (clock.out, clock.emit), network)
    return make_state(network, tuple(locations), values, enabled, (UNKNOWN,) * network.size, entries, 0, 0)


def _select_modes(network: Network, locations, enabled) -> tuple:
    """Enable the refinement each controller's location picks; freeze the others.

    Returns ``enabled`` itself when no flag changes.
    """
    changed = None
    for info in network.modals:
        active = info.refinement(locations[info.controller])
        for child in info.others:
            flag = child == active
            if (changed or enabled)[child] != flag:
                if changed is None:
                    changed = list(enabled)
                changed[child] = flag
    return enabled if changed is None else tuple(changed)


def postfire(subject, decisions):
    """Commit one iteration.  Returns (next state or tree, scheduling requests).

    ``subject`` must carry the resolved port statuses and ``decisions``
    the firing decisions, both as compute_fixpoint produced them: for a
    state, its ``state`` and its firing machines by actor index; for a
    tree, its ``top`` and its verdicts by path.  The requests are in
    actor order; commit them with commit_requests to preserve the
    deterministic ordering.
    """
    if isinstance(subject, ActorNode):
        return _tree_postfire(subject, decisions)
    network = subject.network
    locations, values, requests = _commit(
        network, subject.locations, subject.values, subject.enabled, subject.statuses, decisions
    )
    enabled = _select_modes(network, locations, subject.enabled)
    nxt = make_state(
        network,
        locations,
        values,
        enabled,
        subject.statuses,
        subject.entries,
        subject.now,
        subject.microstep_of_instant,
    )
    return nxt, requests


def _commit(network: Network, locations, values, enabled, statuses, fired):
    """(locations, values, requests) after the firing machines and live
    clocks, delays and setters commit; unchanged slots come back as given."""
    new_locations = new_values = None
    composite_writes = {}  # composite index -> {variable: value}
    requests = []
    for i, kind in network.mode(enabled).committers:
        if kind == FSM:
            entry = fired.get(i)
            if entry is None:
                continue
            if entry.updates:
                if new_values is None:
                    new_values = list(values)
                for slot, var, fn in entry.updates:
                    value = fn(statuses, values)
                    if slot is None:
                        raise UnknownVariableTarget(f"{network.fsms[i].label} has no variable '{var}'")
                    new_values[slot] = value
            if entry.target != locations[i]:
                if new_locations is None:
                    new_locations = list(locations)
                new_locations[i] = entry.target
        elif kind == CLOCK:
            clock = network.clocks[i]
            if isinstance(statuses[clock.out], Present):
                requests.append((clock.period, 0, (clock.out, clock.emit)))
        elif kind == DELAY:
            delay = network.delays[i]
            status = statuses[delay.inp]
            if isinstance(status, Present):
                # A zero delay still takes one microstep: strictly later in
                # superdense time, same timestamp.
                requests.append((delay.delay, delay.microstep, (delay.out, status)))
        else:
            pid, target, scope = network.setters[i]
            status = statuses[pid]
            if isinstance(status, Present):
                if scope is None:
                    raise UnknownVariableTarget(f"{'.'.join(network.paths[i])}: no enclosing composite")
                composite_writes.setdefault(scope, {})[target] = status.value

    for i, writes in composite_writes.items():
        slots = network.slots[i]
        if new_values is None:
            new_values = list(values)
        for var, value in writes.items():
            if var not in slots:
                raise UnknownVariableTarget(f"{'.'.join(network.paths[i])} has no variable '{var}'")
            new_values[slots[var]] = value
    return (
        locations if new_locations is None else tuple(new_locations),
        values if new_values is None else tuple(new_values),
        requests,
    )


def _tree_postfire(top: ActorNode, decisions):
    network = network_of(top)
    locations, values, enabled, statuses = network.flatten(top)
    live = network.mode(enabled).live
    fired = {}
    for i, info in network.fsms.items():
        verdict, transition = decisions.get(network.paths[i], ("nofire", None))
        if live[i] and verdict == "fire":
            fired[i] = info.compiled(transition)
    new_locations, new_values, requests = _commit(network, locations, values, enabled, statuses, fired)
    new_enabled = _select_modes(network, new_locations, enabled)
    # Only actors whose state changes are rebuilt, along with their
    # ancestors; every other subtree is shared with ``top``.
    changes = {}
    for i, slots in enumerate(network.slots):
        change = {}
        if new_locations[i] != locations[i]:
            change["curr_location"] = new_locations[i]
        if any(new_values[slot] != values[slot] for slot in slots.values()):
            change["variables"] = FrozenMap({name: new_values[slot] for name, slot in slots.items()})
        if new_enabled[i] != enabled[i]:
            change["enabled"] = new_enabled[i]
        if change:
            changes[i] = change
    base = network.timebase
    requests = [
        (Fraction(time, base), microstep, Event(PortRef(*network.keys[pid][:2]), status.value))
        for time, microstep, (pid, status) in requests
    ]
    return map_ports(top, changes=changes), requests


def commit_requests(queue, requests):
    """Fold scheduling requests into a queue, in the order given.

    ``queue`` is a system state, whose flat queue takes the requests of
    a state's postfire, or an EventQueue, which takes a tree's.
    """
    if isinstance(queue, EventQueue):
        for delay, microstep, event in requests:
            queue = queue.add(delay, microstep, event)
        return queue
    entries = queue.entries
    for time, microstep, event in requests:
        entries = schedule(entries, time, microstep, event, queue.network)
    return queue.requeued(entries, queue.now, queue.microstep_of_instant)
