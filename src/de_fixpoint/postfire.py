"""State commitment after the fixed point, and model initialization.

The fixed point only computes port statuses and firing decisions; this
module turns those into the next system state.  Machines that fired move
to their target location and apply their variable updates (all update
expressions are evaluated against the pre-commit environment, so updates
within one transition are simultaneous).  Clocks that ticked reschedule
themselves, delays forward their input as a future event, and
variable-setting actors write into the enclosing composite's store.
Frozen refinements commit nothing.

``initialize`` compiles the model's network (see network.py), which
every later state carries, and one rebuild, ``network.map_ports``,
serves every commit: initialization and each postfire alike.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownVariableTarget
from .events import EMPTY_QUEUE, Event, EventQueue
from .expr import eval_expr
from .model import CLOCK, DELAY, FSM, IN, OUT, SETVAR, ActorNode, PortRef, normalize, validate
from .network import Network, map_ports, network_of
from .state import SystemState
from .util import FrozenMap, time_amount
from .values import UNKNOWN, IntVal, Present, TimeVal


def _amount(value) -> Fraction:
    """The exact rational inside a time-like parameter value."""
    if isinstance(value, (IntVal, TimeVal)):
        return time_amount(value.value)
    return time_amount(value)


def initialize(top: ActorNode) -> SystemState:
    """Normalize, validate, compile, and produce the starting state.

    Machines stand in their initial locations, each modal actor has the
    matching refinement live, every port is unknown, variables keep
    their values, and each live clock has its first tick scheduled at
    its offset.  The tree carries its compiled network from here on.
    """
    top = normalize(top)
    validate(top)
    network = network_of(top)
    nodes = network.nodes_of(top)
    changes = {i: {"enabled": True} for i in range(len(nodes))}
    for i in network.fsms:
        changes[i]["curr_location"] = nodes[i].init_location
    _select_modes(network, nodes, changes)
    top = map_ports(top, [UNKNOWN] * network.size, changes)
    nodes = network.nodes_of(top)
    live = network.live(nodes)
    queue = EMPTY_QUEUE
    for i in network.preorder:
        node = nodes[i]
        if live[i] and node.kind == CLOCK:
            event = Event(PortRef(network.paths[i], "output"), node.parameters["emit"])
            queue = queue.add(_amount(node.parameters["offset"]), 0, event)
    return SystemState(top, queue)


def _select_modes(network: Network, nodes, changes) -> None:
    """Enable the refinement each controller's location picks; freeze the others.

    Locations and enabled flags are read from ``changes`` where it has
    them, else from ``nodes``; only flags that differ are written back.
    """
    for info in network.modals:
        ctrl = info.controller
        location = changes.get(ctrl, {}).get("curr_location", nodes[ctrl].curr_location)
        active = info.refinement(location)
        for child in info.others:
            enabled = child == active
            if changes.get(child, {}).get("enabled", nodes[child].enabled) != enabled:
                changes.setdefault(child, {})["enabled"] = enabled


def postfire(top: ActorNode, decisions):
    """Commit one iteration.  Returns (next tree, scheduling requests).

    ``top`` must carry the resolved port statuses and ``decisions`` the
    firing decision per machine, both produced by compute_fixpoint.  The
    requests are (delay, microstep, event) triples in tree order; commit
    them with commit_requests to preserve the deterministic ordering.

    Only actors whose state changes are rebuilt, along with their
    ancestors; every other subtree is shared with ``top``.
    """
    network = network_of(top)
    nodes = network.nodes_of(top)
    live = network.live(nodes)
    changes = {}  # actor index -> with_state arguments
    composite_writes = {}  # composite index -> {variable: value}
    requests = []

    for i in network.preorder:
        if not live[i]:
            continue
        node = nodes[i]
        kind = node.kind
        path = network.paths[i]
        if kind == FSM:
            verdict, transition = decisions.get(path, ("nofire", None))
            if verdict != "fire":
                continue
            change = {}
            if transition.sets:
                env = node.statuses(IN)
                variables = dict(node.variables)
                for var, expr in transition.sets.items():
                    variables[var] = eval_expr(expr, node.variables, node.parameters, env)
                change["variables"] = FrozenMap(variables)
            if transition.target != node.curr_location:
                change["curr_location"] = transition.target
            if change:
                changes[i] = change
        elif kind == CLOCK:
            status = node.port("output", OUT).status
            if isinstance(status, Present):
                event = Event(PortRef(path, "output"), node.parameters["emit"])
                requests.append((_amount(node.parameters["period"]), 0, event))
        elif kind == DELAY:
            status = node.port("input", IN).status
            if isinstance(status, Present):
                delay = _amount(node.parameters["delay"])
                # A zero delay still takes one microstep: strictly later in
                # superdense time, same timestamp.
                microstep = 1 if delay == 0 else 0
                requests.append((delay, microstep, Event(PortRef(path, "output"), status.value)))
        elif kind == SETVAR:
            status = node.port("input", IN).status
            if isinstance(status, Present):
                target = node.parameters["target"].value
                scope = network.scope[i]
                if scope is None:
                    raise UnknownVariableTarget(f"{'.'.join(path)}: no enclosing composite")
                composite_writes.setdefault(scope, {})[target] = status.value

    for i, writes in composite_writes.items():
        variables = dict(nodes[i].variables)
        for var, value in writes.items():
            if var not in variables:
                path = ".".join(network.paths[i])
                raise UnknownVariableTarget(f"{path} has no variable '{var}'")
            variables[var] = value
        changes[i] = {"variables": FrozenMap(variables)}

    # The refinement that matches each controller's new location becomes
    # live from the next iteration on (frozen modal actors included).
    _select_modes(network, nodes, changes)
    return map_ports(top, changes=changes), requests


def commit_requests(queue: EventQueue, requests) -> EventQueue:
    """Fold scheduling requests into the queue, in the order given."""
    for delay, microstep, event in requests:
        queue = queue.add(delay, microstep, event)
    return queue
