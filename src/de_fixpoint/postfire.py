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
microstep, (port id, status)) triples, which ``commit_requests`` folds
into the state's queue.

``initialize`` compiles the model's network (see network.py), which
every later state carries.
"""

from __future__ import annotations

from .errors import UnknownVariableTarget
from .events import schedule
from .model import CLOCK, DELAY, FSM, ActorNode, normalize, validate
from .network import Network, network_of
from .state import SystemState, make_state
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


def postfire(state: SystemState, decisions):
    """Commit one iteration.  Returns (next state, scheduling requests).

    ``state`` must carry the resolved port statuses and ``decisions`` the
    firing machines' compiled transitions by actor index, both as
    compute_fixpoint produced them.  Machines that fired move and update
    their variables; live clocks, delays and setters commit.  Slots that
    do not change are shared with ``state``.  The requests are in actor
    order; commit them with commit_requests to preserve the deterministic
    ordering.
    """
    network = state.network
    locations, values, statuses = state.locations, state.values, state.statuses
    new_locations = new_values = None
    composite_writes = {}  # composite index -> {variable: value}
    requests = []
    for i, kind in network.mode(state.enabled).committers:
        if kind == FSM:
            entry = decisions.get(i)
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
    if new_locations is not None:
        locations = tuple(new_locations)
    nxt = make_state(
        network,
        locations,
        values if new_values is None else tuple(new_values),
        _select_modes(network, locations, state.enabled),
        statuses,
        state.entries,
        state.now,
        state.microstep_of_instant,
    )
    return nxt, requests


def commit_requests(state: SystemState, requests) -> SystemState:
    """Fold a postfire's scheduling requests into the state's queue, in the order given."""
    entries = state.entries
    for time, microstep, event in requests:
        entries = schedule(entries, time, microstep, event, state.network)
    return state.requeued(entries, state.now, state.microstep_of_instant)
